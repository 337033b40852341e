//! Processing-element execution of island and inter-hub tasks — the
//! reference PE the walk in [`super::hotpath`] is held against.
//!
//! [`execute_island_task`] is the software equivalent of one PE run
//! (Figure 8, bottom): PULL-based combination of the island's members into
//! pre-scaled vectors `y_v = s_in(v)·(X_v·W)`, eager (or lazy)
//! pre-aggregation of every `k` consecutive members, then the `1×k`
//! bitmap window scan that aggregates each member row, reusing
//! pre-aggregated group sums wherever that costs fewer vector ops. It
//! works on original node IDs with per-node vectors and hashed hub
//! caches ([`super::hub_cache`]), shares no control flow with the hot
//! path, and so serves as its independent oracle for values *and*
//! statistics.
//!
//! The combination arithmetic ([`combine_values_into`]) and its cost
//! model (`combine_cost`) are the two pieces both implementations
//! call.

use std::collections::BTreeMap;

use igcn_gnn::Activation;
use igcn_graph::{CsrGraph, NodeId, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};

use crate::config::{ConsumerConfig, PreaggPolicy};
use crate::island::Island;
use crate::stats::{AggregationStats, LayerExecStats};

use super::hub_cache::{HubPartialCache, HubXwCache};
use super::ring::RingAccountant;
use super::window::WindowDecision;
use super::LayerInput;

const F32_BYTES: u64 = 4;
const IDX_BYTES: u64 = 4;
const INT8_BYTES: u64 = 1;

/// Mutable state of one layer's execution across all PEs.
#[derive(Debug)]
pub struct LayerContext<'l> {
    input: LayerInput<'l>,
    weights: &'l DenseMatrix,
    norm: &'l GcnNormalization,
    activation: Activation,
    cfg: ConsumerConfig,
    out: DenseMatrix,
    xw_cache: HubXwCache,
    prc: HubPartialCache,
    ring: RingAccountant,
    wave: Vec<(u32, u32, u32)>,
    /// Execution statistics being accumulated.
    pub stats: LayerExecStats,
}

impl<'l> LayerContext<'l> {
    /// Creates the context for one layer over `n` nodes.
    pub fn new(
        input: LayerInput<'l>,
        weights: &'l DenseMatrix,
        norm: &'l GcnNormalization,
        activation: Activation,
        cfg: ConsumerConfig,
        n: usize,
    ) -> Self {
        let out_dim = weights.cols();
        LayerContext {
            input,
            weights,
            norm,
            activation,
            cfg,
            out: DenseMatrix::zeros(n, out_dim),
            xw_cache: HubXwCache::new(),
            prc: HubPartialCache::new(cfg.num_pes, out_dim),
            ring: RingAccountant::new(cfg.num_pes),
            wave: Vec::new(),
            stats: LayerExecStats { feature_width: out_dim, ..Default::default() },
        }
    }

    /// Combination of one node: `y_v = s_in(v) · (X_v · W)`, with exact
    /// operation and traffic accounting.
    fn combine_node(&mut self, v: u32) -> Vec<f32> {
        let (macs, muls, feature_bytes) =
            combine_cost(self.input.into(), self.weights.cols(), self.norm, v);
        self.stats.combination_ops.macs += macs;
        self.stats.combination_ops.muls += muls;
        self.stats.traffic.feature_read_bytes += feature_bytes;
        combine_values(self.input, self.weights, self.norm, v)
    }

    /// The hub's pre-scaled combination result, served by the HUB Matrix
    /// XW Cache: computed once per layer at the hub's first touch, which
    /// charges the combination cost; later touches count as hits.
    fn hub_y(&mut self, hub: u32) -> Vec<f32> {
        if self.xw_cache.get(hub).is_none() {
            let y = self.combine_node(hub);
            self.xw_cache.insert(hub, y);
        } else {
            self.xw_cache.record_hit();
        }
        self.xw_cache.get(hub).expect("just inserted").to_vec()
    }

    /// Initialises a hub's partial row with its self contribution
    /// `self_weight · y_hub` on first touch.
    fn ensure_hub_partial(&mut self, hub: u32, y_hub: &[f32]) {
        if self.prc.contains(hub) {
            return;
        }
        self.stats.aggregation.unpruned_vector_ops += 1;
        self.stats.aggregation.executed_vector_adds += 1;
        let sw = self.norm.self_weight();
        let init: Vec<f32> = y_hub.iter().map(|&v| v * sw).collect();
        self.prc.accumulate(hub, &init);
    }

    /// Flushes the pending wave of hub updates through the ring model.
    pub fn flush_wave(&mut self) {
        if !self.wave.is_empty() {
            let wave = std::mem::take(&mut self.wave);
            self.ring.record_wave(&wave);
        }
    }

    /// Completes the layer: folds ring/cache counters into the stats and
    /// returns the output matrix.
    pub fn finish(mut self) -> (DenseMatrix, LayerExecStats) {
        let rs = self.ring.stats();
        self.stats.hub_path.local_bank_hits = rs.local_hits;
        self.stats.hub_path.ring_hops = rs.hops;
        self.stats.hub_path.in_network_reductions = rs.reductions;
        self.stats.hub_path.hub_rows_allocated = self.prc.rows_allocated();
        self.stats.hub_path.xw_cache_hits = self.xw_cache.hits();
        (self.out, self.stats)
    }
}

/// Executes one island task on PE `pe_id` (values + statistics).
pub fn execute_island_task(
    ctx: &mut LayerContext<'_>,
    graph: &CsrGraph,
    island: &Island,
    pe_id: u32,
) {
    // With unit self-weight (GCN, GraphSage) the Ã = A + I diagonal rides
    // the bitmap, so self-contributions share the pre-aggregated windows.
    // GIN's 1+ε self-weight needs the separate scaled add.
    let self_in_bitmap = ctx.norm.self_weight() == 1.0;
    let bm = if self_in_bitmap { island.bitmap_with_self(graph) } else { island.bitmap(graph) };
    let out_dim = ctx.weights.cols();
    let k = ctx.cfg.k;
    let dim = bm.dim();
    let nh = bm.num_hubs();

    // --- Combination phase (hubs served from the XW cache). ---
    let mut y: Vec<Vec<f32>> = Vec::with_capacity(dim);
    for (i, &m) in bm.members().iter().enumerate() {
        if i < nh {
            y.push(ctx.hub_y(m));
        } else {
            y.push(ctx.combine_node(m));
        }
    }

    // --- Pre-aggregation of every k consecutive members. ---
    let num_groups = dim.div_ceil(k);
    let mut group_sums: Vec<Option<Vec<f32>>> = vec![None; num_groups];
    if ctx.cfg.redundancy_removal && ctx.cfg.preagg == PreaggPolicy::Eager {
        for g in 0..num_groups {
            materialize_group(&mut group_sums, &y, g, k, dim, &mut ctx.stats.aggregation);
        }
    }

    // --- Aggregation: 1×k window scan over every bitmap row. ---
    for r in 0..dim {
        let mut acc = vec![0.0f32; out_dim];
        for g in 0..num_groups {
            let start = g * k;
            let size = k.min(dim - start);
            let mask = bm.window(r, start, k);
            let nnz = mask.count_ones() as u64;
            ctx.stats.aggregation.unpruned_vector_ops += nnz;
            match WindowDecision::decide(mask, size, ctx.cfg.redundancy_removal) {
                WindowDecision::Skip => {
                    ctx.stats.aggregation.windows_skipped += 1;
                }
                WindowDecision::Direct { adds } => {
                    ctx.stats.aggregation.windows_direct += 1;
                    ctx.stats.aggregation.executed_vector_adds += adds as u64;
                    for b in 0..size {
                        if (mask >> b) & 1 == 1 {
                            axpy(&mut acc, &y[start + b], 1.0);
                        }
                    }
                }
                WindowDecision::Reuse { subs } => {
                    ctx.stats.aggregation.windows_reused += 1;
                    ctx.stats.aggregation.executed_vector_adds += 1;
                    ctx.stats.aggregation.executed_vector_subs += subs as u64;
                    materialize_group(&mut group_sums, &y, g, k, dim, &mut ctx.stats.aggregation);
                    let sum = group_sums[g].as_ref().expect("materialized above");
                    axpy(&mut acc, sum, 1.0);
                    for b in 0..size {
                        if (mask >> b) & 1 == 0 {
                            axpy(&mut acc, &y[start + b], -1.0);
                        }
                    }
                }
            }
        }
        let member = bm.member(r);
        if r >= nh {
            // Island node: self contribution (separate path only when the
            // self-weight is not 1), post-scale, activate, write the final
            // row.
            if !self_in_bitmap {
                ctx.stats.aggregation.unpruned_vector_ops += 1;
                ctx.stats.aggregation.executed_vector_adds += 1;
                axpy(&mut acc, &y[r], ctx.norm.self_weight());
            }
            let os = ctx.norm.out_scale(NodeId::new(member));
            if os != 1.0 {
                ctx.stats.combination_ops.muls += out_dim as u64;
            }
            let out_row = ctx.out.row_mut(member as usize);
            for (o, &v) in out_row.iter_mut().zip(&acc) {
                *o = ctx.activation.apply(v * os);
            }
            ctx.stats.traffic.output_write_bytes += out_dim as u64 * F32_BYTES;
        } else {
            // Hub: push the partial into its DHUB-PRC bank via the ring.
            let bank = ctx.prc.bank_of(member);
            let y_hub = y[r].clone();
            ctx.ensure_hub_partial(member, &y_hub);
            ctx.prc.accumulate(member, &acc);
            ctx.stats.hub_path.hub_updates += 1;
            ctx.wave.push((pe_id, bank, member));
        }
    }
}

/// Executes all inter-hub tasks in PUSH-outer-product order: sources in
/// ascending hub ID; each source broadcasts its cached `y` to every hub
/// neighbor's partial row.
pub fn execute_inter_hub_tasks(ctx: &mut LayerContext<'_>, edges: &[(u32, u32)]) {
    let mut by_source: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b) in edges {
        by_source.entry(a).or_default().push(b);
        by_source.entry(b).or_default().push(a);
    }
    let num_pes = ctx.cfg.num_pes;
    for (task_idx, (src, dests)) in by_source.into_iter().enumerate() {
        let pe_id = (task_idx % num_pes) as u32;
        let y_src = ctx.hub_y(src);
        for d in dests {
            let bank = ctx.prc.bank_of(d);
            let y_dst = ctx.hub_y(d);
            ctx.ensure_hub_partial(d, &y_dst);
            ctx.stats.aggregation.unpruned_vector_ops += 1;
            ctx.stats.aggregation.executed_vector_adds += 1;
            ctx.prc.accumulate(d, &y_src);
            ctx.stats.hub_path.hub_updates += 1;
            ctx.wave.push((pe_id, bank, d));
        }
        ctx.stats.inter_hub_tasks += 1;
        if (task_idx + 1) % num_pes == 0 {
            ctx.flush_wave();
        }
    }
}

/// Finalises every hub: post-scales its completed partial result, applies
/// the activation and writes the output row.
pub fn finalize_hubs(ctx: &mut LayerContext<'_>, hubs: &[u32]) {
    let out_dim = ctx.weights.cols();
    for &h in hubs {
        if !ctx.prc.contains(h) {
            // Hub untouched by any task (only possible in degenerate
            // graphs): its output is the self contribution alone.
            let y_h = ctx.hub_y(h);
            ctx.ensure_hub_partial(h, &y_h);
        }
        let partial = ctx.prc.partial(h).expect("initialized above").to_vec();
        let os = ctx.norm.out_scale(NodeId::new(h));
        if os != 1.0 {
            ctx.stats.combination_ops.muls += out_dim as u64;
        }
        let out_row = ctx.out.row_mut(h as usize);
        for (o, &v) in out_row.iter_mut().zip(&partial) {
            *o = ctx.activation.apply(v * os);
        }
        ctx.stats.traffic.output_write_bytes += out_dim as u64 * F32_BYTES;
    }
}

/// How the cost model prices the input rows of one layer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowCost<'a> {
    /// Sparse request rows (layer 0) whose stored values are
    /// `value_bytes` wide: 4 for f32, 1 for the int8 stream of
    /// `ExecConfig::quantized_features` (per-column scales are a
    /// width-sized constant the model ignores, as it does weights
    /// elsewhere; the MAC count is the same — the kernels run on
    /// dequantized f32 rows).
    Sparse { x: &'a SparseFeatures, value_bytes: u64 },
    /// Dense activation rows `cols` wide (layers ≥ 1).
    Dense { cols: usize },
    /// Rows priced later, from the request: what the request-independent
    /// plan (`crate::exec::ExecPlan`) accounts layer 0 with.
    Deferred,
}

impl<'a> From<LayerInput<'a>> for RowCost<'a> {
    fn from(input: LayerInput<'a>) -> Self {
        match input {
            LayerInput::Sparse(x) => RowCost::Sparse { x, value_bytes: F32_BYTES },
            LayerInput::SparseInt8(x) => RowCost::Sparse { x, value_bytes: INT8_BYTES },
            LayerInput::Dense(m) => RowCost::Dense { cols: m.cols() },
        }
    }
}

impl RowCost<'_> {
    /// `(macs, feature_read_bytes)` of combining row `v` into `out_dim`
    /// outputs — the only two quantities of an inference's statistics
    /// that depend on the request.
    pub(crate) fn of(self, out_dim: usize, v: u32) -> (u64, u64) {
        match self {
            RowCost::Sparse { x, value_bytes } => {
                let nnz = x.row_nnz(NodeId::new(v)) as u64;
                // The feature fetcher picks the cheaper row encoding: CSR
                // (value + index per non-zero) or dense.
                (
                    nnz * out_dim as u64,
                    (nnz * (value_bytes + IDX_BYTES)).min(x.num_cols() as u64 * value_bytes),
                )
            }
            RowCost::Dense { cols } => ((cols * out_dim) as u64, cols as u64 * F32_BYTES),
            RowCost::Deferred => (0, 0),
        }
    }
}

/// The operation/traffic cost of combining node `v` as
/// `(macs, muls, feature_read_bytes)` — the single source of truth for
/// the combination cost model, shared by the reference PE, the walk's
/// `Account` sink and the plan's per-request row charge.
pub(crate) fn combine_cost(
    rows: RowCost<'_>,
    out_dim: usize,
    norm: &GcnNormalization,
    v: u32,
) -> (u64, u64, u64) {
    let (macs, feature_bytes) = rows.of(out_dim, v);
    let muls = if norm.in_scale(NodeId::new(v)) != 1.0 { out_dim as u64 } else { 0 };
    (macs, muls, feature_bytes)
}

/// The pure combination arithmetic `y_v = s_in(v) · (X_v · W)` — the
/// value half of [`LayerContext::combine_node`].
pub fn combine_values(
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    v: u32,
) -> Vec<f32> {
    let mut y = vec![0.0f32; weights.cols()];
    combine_values_into(input, weights, norm, v, &mut y);
    y
}

/// Allocation-free form of [`combine_values`]: writes
/// `y_v = s_in(v) · (X_v · W)` into `out` (which must be `weights.cols()`
/// long). [`combine_values`] delegates here, so the reference PE and the
/// hot path are arithmetic-identical by construction.
///
/// # Panics
///
/// Panics if `out.len() != weights.cols()`.
pub fn combine_values_into(
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    v: u32,
    out: &mut [f32],
) {
    assert_eq!(out.len(), weights.cols(), "combination output width mismatch");
    out.fill(0.0);
    // Column-vectorized kernels: `axpy_f32` accumulates one weight row at a
    // time in feature-column order with non-fused multiply + add, so the
    // per-element accumulation order (and hence every bit of the result)
    // matches the historical scalar loops on every SIMD backend.
    match input {
        LayerInput::Sparse(x) | LayerInput::SparseInt8(x) => {
            let (cols, vals) = x.row(NodeId::new(v));
            for (&c, &xv) in cols.iter().zip(vals) {
                igcn_linalg::kernels::axpy_f32(out, weights.row(c as usize), xv);
            }
        }
        LayerInput::Dense(m) => {
            for (c, &xv) in m.row(v as usize).iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                if out.len() < 8 {
                    // Narrower than one vector: the kernel's scalar
                    // arithmetic in place, without the dispatched call.
                    out.iter_mut().zip(weights.row(c)).for_each(|(o, &w)| *o += xv * w);
                } else {
                    igcn_linalg::kernels::axpy_f32(out, weights.row(c), xv);
                }
            }
        }
    }
    let s = norm.in_scale(NodeId::new(v));
    if s != 1.0 {
        igcn_linalg::kernels::scale_f32(out, s);
    }
}

fn materialize_group(
    group_sums: &mut [Option<Vec<f32>>],
    y: &[Vec<f32>],
    g: usize,
    k: usize,
    dim: usize,
    agg: &mut AggregationStats,
) {
    if group_sums[g].is_some() {
        return;
    }
    let start = g * k;
    let size = k.min(dim - start);
    let mut sum = y[start].clone();
    for item in y.iter().skip(start + 1).take(size - 1) {
        axpy(&mut sum, item, 1.0);
    }
    if size >= 2 {
        agg.preagg_vector_adds += size as u64 - 1;
    }
    group_sums[g] = Some(sum);
}

/// `acc += alpha · x` over the SIMD backend — bit-identical to the scalar
/// loop `*a += alpha * v` because the kernel uses non-fused multiply + add
/// on independent lanes (see `igcn_simd`).
#[inline]
pub(crate) fn axpy(acc: &mut [f32], x: &[f32], alpha: f32) {
    igcn_linalg::kernels::axpy_f32(acc, x, alpha);
}
