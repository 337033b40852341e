//! The Island Consumer's one datapath: a single schedule-order walk
//! over the physical [`IslandLayout`], generic over what it feeds.
//!
//! **The walk.** `walk_layer` is the traversal of Figures 7–8 written
//! once: islands wave by wave along the schedule — per island every
//! member's combination, the eager pre-aggregation groups, then per
//! bitmap row the `1×k` window decisions and the row's finish — followed
//! by the inter-hub tasks in PUSH-outer-product order and the hub
//! finalise. It owns no data and does no arithmetic; it tells a *sink*
//! what happens, and is monomorphised per sink.
//!
//! **Three sinks.**
//!
//! * `Compute` produces values: member vectors, group sums and the
//!   accumulator live in flat row-major arenas ([`LayerScratch`]), hub
//!   XW vectors and hub partial rows in dense slabs indexed by the
//!   layout's compact hub IDs `0..H`. A window is applied to the
//!   accumulator the moment the walk decides it, at the full feature
//!   width (an island is bounded by `c_max`, so its member slab stays
//!   cache-resident at any width). It keeps no statistics, prices
//!   nothing and models no ring: this is what `IGcnEngine::infer` runs,
//!   sequentially or with the islands fanned across a pool.
//! * `Account` produces the [`LayerExecStats`] and the ring model and
//!   touches no floating-point data: the same events over the same
//!   prebuilt bitmaps, with `Vec<bool>` / `Vec<u32>` slabs over hub IDs
//!   for the XW-cache, partial-row and bank state. One `Account` walk
//!   per layer is what the engine's request-independent plan
//!   ([`crate::exec::ExecPlan`]) is built from: a function of the
//!   layout, the [`ConsumerConfig`], the model's widths and
//!   normalisation, the worker count and the locator statistics, rebuilt
//!   lazily by the first request after any of them changes (`prepare`,
//!   `apply_update`, `set_exec_config`) and never per request — a
//!   request only adds layer 0's two row-length sums to it.
//! * The export form of `Compute` (the shard hook,
//!   [`execute_islands_export`]) writes each island's hub rows out
//!   instead of merging them; a coordinator replays them in global
//!   schedule order through [`HubMergeState`].
//!
//! Sinks compose: `(Compute, Account)` is itself a sink, and it is what
//! the public [`execute_layer`] runs, so one pass yields values and
//! statistics from literally the same sequence of window decisions.
//!
//! **Bit-identity contract.** Every form replays the floating-point
//! accumulation order of the reference PE ([`super::pe`]): island
//! schedule order, per-member bitmap order, the inter-hub PUSH order
//! over *original* hub IDs. Outputs are bit-identical at every thread
//! and shard count, and `Account` alone, `(Compute, Account)` and the
//! reference PE agree on every statistic; the unit tests below pin both.

use igcn_gnn::Activation;
use igcn_graph::NodeId;
use igcn_linalg::{DenseMatrix, GcnNormalization};
use threadpool::ThreadPool;

use crate::config::{ConsumerConfig, PreaggPolicy};
use crate::island::IslandBitmap;
use crate::layout::IslandLayout;
use crate::stats::LayerExecStats;

use super::pe::{axpy, combine_cost, combine_values_into, RowCost};
use super::ring::RingAccountant;
use super::window::WindowDecision;
use super::LayerInput;

const F32_BYTES: u64 = 4;

// ---------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------

/// What the walk of one island tells its sink, in this order: the
/// island's bitmap, every member's combination (hubs first), the
/// pre-aggregation groups, then per bitmap row its window decisions and
/// its finish. A group is materialised exactly once per island, before
/// the first window that reuses it (all of them up front under eager
/// pre-aggregation).
trait IslandSink {
    fn begin_island(&mut self, bm: &IslandBitmap);
    /// Member `i` of the bitmap is node `node`.
    fn combine(&mut self, i: usize, node: u32, is_hub: bool);
    /// Group `g` covers members `start..start + size`.
    fn materialize(&mut self, g: usize, start: usize, size: usize);
    fn window(&mut self, g: usize, mask: u64, decision: WindowDecision);
    /// Bitmap row `r` (node `node`) has seen all its windows.
    fn finish_row(&mut self, r: usize, node: u32, is_hub: bool);
}

/// The layer-level events around the islands.
trait LayerSink: IslandSink {
    /// The next island runs on PE `pe`.
    fn begin_task(&mut self, pe: u32);
    /// An issue wave of island or inter-hub tasks is complete.
    fn end_wave(&mut self);
    /// Hub `src` pushes its XW vector to each of `dests`, from PE `pe`.
    fn inter_hub_task(&mut self, pe: u32, src: u32, dests: &[u32]);
    fn finalize_hub(&mut self, hub: u32);
}

/// One island: members → combination, eager pre-aggregation groups, per
/// bitmap row the `1×k` window decisions, row finish. `ready` is the
/// walk's own per-group scratch.
fn walk_island<S: IslandSink>(
    cfg: &ConsumerConfig,
    bm: &IslandBitmap,
    ready: &mut Vec<bool>,
    sink: &mut S,
) {
    let k = cfg.k;
    let dim = bm.dim();
    let nh = bm.num_hubs();
    let num_groups = dim.div_ceil(k);
    let group = |g: usize| (g * k, k.min(dim - g * k));

    sink.begin_island(bm);
    for (i, &m) in bm.members().iter().enumerate() {
        sink.combine(i, m, i < nh);
    }
    let eager = cfg.redundancy_removal && cfg.preagg == PreaggPolicy::Eager;
    if eager {
        for g in 0..num_groups {
            let (start, size) = group(g);
            sink.materialize(g, start, size);
        }
    }
    ready.clear();
    ready.resize(num_groups, eager);
    for r in 0..dim {
        for (g, ready) in ready.iter_mut().enumerate() {
            let (start, size) = group(g);
            let mask = bm.window(r, start, k);
            let decision = WindowDecision::decide(mask, size, cfg.redundancy_removal);
            if matches!(decision, WindowDecision::Reuse { .. }) && !std::mem::replace(ready, true) {
                sink.materialize(g, start, size);
            }
            sink.window(g, mask, decision);
        }
        sink.finish_row(r, bm.member(r), r < nh);
    }
}

/// Island tasks, issued to PEs wave by wave along the schedule.
fn walk_islands<S: LayerSink>(
    layout: &IslandLayout,
    cfg: &ConsumerConfig,
    self_in_bitmap: bool,
    ready: &mut Vec<bool>,
    sink: &mut S,
) {
    for wave in layout.schedule().waves() {
        for task_idx in wave {
            sink.begin_task((task_idx % cfg.num_pes) as u32);
            walk_island(cfg, layout.bitmap(task_idx, self_in_bitmap), ready, sink);
        }
        sink.end_wave();
    }
}

/// Inter-hub tasks in the reference PUSH-outer-product replay order
/// (ascending original source-hub ID, from the layout's task list),
/// then every hub's finalise (hub IDs are the compact prefix `0..H`).
fn walk_hubs<S: LayerSink>(layout: &IslandLayout, cfg: &ConsumerConfig, sink: &mut S) {
    for (task_idx, (src, dests)) in layout.inter_hub_tasks().iter().enumerate() {
        sink.inter_hub_task((task_idx % cfg.num_pes) as u32, *src, dests);
        if (task_idx + 1) % cfg.num_pes == 0 {
            sink.end_wave();
        }
    }
    sink.end_wave();
    for h in 0..layout.num_hubs() as u32 {
        sink.finalize_hub(h);
    }
}

/// The whole layer. `self_in_bitmap` picks the `Ã = A + I` bitmaps
/// (unit self-weight models).
fn walk_layer<S: LayerSink>(
    layout: &IslandLayout,
    cfg: &ConsumerConfig,
    self_in_bitmap: bool,
    ready: &mut Vec<bool>,
    sink: &mut S,
) {
    walk_islands(layout, cfg, self_in_bitmap, ready, sink);
    walk_hubs(layout, cfg, sink);
}

impl<A: IslandSink, B: IslandSink> IslandSink for (A, B) {
    fn begin_island(&mut self, bm: &IslandBitmap) {
        self.0.begin_island(bm);
        self.1.begin_island(bm);
    }
    fn combine(&mut self, i: usize, node: u32, is_hub: bool) {
        self.0.combine(i, node, is_hub);
        self.1.combine(i, node, is_hub);
    }
    fn materialize(&mut self, g: usize, start: usize, size: usize) {
        self.0.materialize(g, start, size);
        self.1.materialize(g, start, size);
    }
    fn window(&mut self, g: usize, mask: u64, decision: WindowDecision) {
        self.0.window(g, mask, decision);
        self.1.window(g, mask, decision);
    }
    fn finish_row(&mut self, r: usize, node: u32, is_hub: bool) {
        self.0.finish_row(r, node, is_hub);
        self.1.finish_row(r, node, is_hub);
    }
}

impl<A: LayerSink, B: LayerSink> LayerSink for (A, B) {
    fn begin_task(&mut self, pe: u32) {
        self.0.begin_task(pe);
        self.1.begin_task(pe);
    }
    fn end_wave(&mut self) {
        self.0.end_wave();
        self.1.end_wave();
    }
    fn inter_hub_task(&mut self, pe: u32, src: u32, dests: &[u32]) {
        self.0.inter_hub_task(pe, src, dests);
        self.1.inter_hub_task(pe, src, dests);
    }
    fn finalize_hub(&mut self, hub: u32) {
        self.0.finalize_hub(hub);
        self.1.finalize_hub(hub);
    }
}

// ---------------------------------------------------------------------
// The `Compute` sink
// ---------------------------------------------------------------------

/// Flat arenas of the island arithmetic, one set per worker: reused
/// across islands, layers and requests, grown on first use and only
/// ever resliced afterwards.
#[derive(Debug, Clone, Default)]
struct IslandBuffers {
    /// Island member combination vectors (`dim × width`, row-major).
    y: Vec<f32>,
    /// Pre-aggregation group sums (`num_groups × width`).
    group_sums: Vec<f32>,
    /// The window-scan accumulator (`width`): all-zero between rows —
    /// windows add into it, `finish_row` clears it, hub rows included.
    acc: Vec<f32>,
}

/// Flat scratch arenas of one execution worker.
///
/// Owned per worker and reused across layers, islands, batch requests
/// and `infer` calls; every buffer grows to its steady-state size on the
/// first call and is only ever resliced afterwards.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    island: IslandBuffers,
    /// The walk's per-group "materialised" bits.
    ready: Vec<bool>,
    /// Hub XW and partial-result slabs (`H × width`), indexed by compact
    /// hub ID.
    hubs: HubMergeState,
    /// Parallel-path hub contribution slab: one `width`-wide slot per
    /// (island, contacted hub) pair, written by the island workers and
    /// replayed by the sequential merge.
    hub_contrib_slab: Vec<f32>,
    /// Prefix sums of per-island hub-contact counts: island `i`'s slots
    /// are `island_hub_offsets[i]..island_hub_offsets[i + 1]`.
    island_hub_offsets: Vec<usize>,
}

impl LayerScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved across all arenas — the observable for
    /// scratch-reuse regression tests (must stop growing after warm-up).
    pub fn arena_bytes(&self) -> usize {
        let IslandBuffers { y, group_sums, acc } = &self.island;
        (y.capacity() + group_sums.capacity() + acc.capacity()) * 4
            + self.ready.capacity()
            + (self.hubs.y.capacity() + self.hubs.partial.capacity()) * 4
            + self.hubs.partial_ready.capacity()
            + self.hub_contrib_slab.capacity() * 4
            + self.island_hub_offsets.capacity() * 8
    }
}

fn grow_f32(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Everything one layer's arithmetic borrows immutably.
#[derive(Clone, Copy)]
struct LayerEnv<'l> {
    layout: &'l IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'l>,
    weights: &'l DenseMatrix,
    norm: &'l GcnNormalization,
    activation: Activation,
    width: usize,
    self_in_bitmap: bool,
}

impl<'l> LayerEnv<'l> {
    fn new(
        layout: &'l IslandLayout,
        cfg: ConsumerConfig,
        input: LayerInput<'l>,
        weights: &'l DenseMatrix,
        norm: &'l GcnNormalization,
        activation: Activation,
    ) -> Self {
        let n = layout.graph().num_nodes();
        assert_eq!(input.num_rows(), n, "input row count does not match the graph");
        assert_eq!(input.num_cols(), weights.rows(), "input width does not match the weights");
        assert_eq!(norm.len(), n, "normalisation does not match the graph");
        LayerEnv {
            layout,
            cfg,
            input,
            weights,
            norm,
            activation,
            width: weights.cols(),
            self_in_bitmap: norm.self_weight() == 1.0,
        }
    }
}

/// The hub side of an island task: where its hubs' XW vectors come from
/// and where its aggregated hub rows go.
trait HubRows {
    /// The prefilled hub XW slab (`H × width`).
    fn y(&self) -> &[f32];
    /// Bitmap row `r` (hub `hub`) aggregated to `acc`.
    fn hub_row(&mut self, r: usize, hub: u32, acc: &[f32]);
}

/// The value sink: rows and hub partials, nothing else. `H` is the hub
/// side — merged into the layer's partial rows ([`Merged`], the
/// in-engine form) or written out per island ([`Exported`], the shard
/// and pool-worker form).
struct Compute<'a, H> {
    env: &'a LayerEnv<'a>,
    buf: &'a mut IslandBuffers,
    /// Output rows; its first row is node `row_base`'s.
    rows: &'a mut [f32],
    row_base: u32,
    hubs: H,
}

impl<H: HubRows> IslandSink for Compute<'_, H> {
    fn begin_island(&mut self, bm: &IslandBitmap) {
        let width = self.env.width;
        grow_f32(&mut self.buf.y, bm.dim() * width);
        grow_f32(&mut self.buf.group_sums, bm.dim().div_ceil(self.env.cfg.k) * width);
        grow_f32(&mut self.buf.acc, width);
        debug_assert!(self.buf.acc.iter().all(|&a| a == 0.0), "accumulator not cleared");
    }

    fn combine(&mut self, i: usize, node: u32, is_hub: bool) {
        let width = self.env.width;
        let dst = &mut self.buf.y[i * width..][..width];
        if is_hub {
            dst.copy_from_slice(&self.hubs.y()[node as usize * width..][..width]);
        } else {
            combine_values_into(self.env.input, self.env.weights, self.env.norm, node, dst);
        }
    }

    fn materialize(&mut self, g: usize, start: usize, size: usize) {
        let width = self.env.width;
        let IslandBuffers { y, group_sums, .. } = &mut *self.buf;
        let dst = &mut group_sums[g * width..][..width];
        dst.copy_from_slice(&y[start * width..][..width]);
        for item in 1..size {
            axpy(dst, &y[(start + item) * width..][..width], 1.0);
        }
    }

    /// Applies the window to the accumulator as the walk decides it.
    /// `a += v` and `a -= v` are bit for bit the reference PE's
    /// `a += 1.0·v` and `a += −1.0·v`, and the (window, member) order per
    /// output element is the walk's own.
    fn window(&mut self, g: usize, mask: u64, decision: WindowDecision) {
        let width = self.env.width;
        let start = g * self.env.cfg.k;
        let IslandBuffers { y, group_sums, acc } = &mut *self.buf;
        let acc = &mut acc[..width];
        let member = |b: usize| &y[(start + b) * width..][..width];
        match decision {
            WindowDecision::Skip => {}
            WindowDecision::Direct { .. } => set_bits(mask).for_each(|b| add_row(acc, member(b))),
            WindowDecision::Reuse { subs } => {
                add_row(acc, &group_sums[g * width..][..width]);
                // The group's clear bits; its size is `subs` + popcount.
                let clear = !mask & (u64::MAX >> (64 - subs - mask.count_ones()));
                set_bits(clear).for_each(|b| sub_row(acc, member(b)));
            }
        }
    }

    fn finish_row(&mut self, r: usize, node: u32, is_hub: bool) {
        let width = self.env.width;
        let IslandBuffers { y, acc, .. } = &mut *self.buf;
        let acc = &mut acc[..width];
        if is_hub {
            self.hubs.hub_row(r, node, acc);
        } else {
            let norm = self.env.norm;
            if !self.env.self_in_bitmap {
                axpy(acc, &y[r * width..][..width], norm.self_weight());
            }
            let os = norm.out_scale(NodeId::new(node));
            let out_row = &mut self.rows[(node - self.row_base) as usize * width..][..width];
            for (o, &v) in out_row.iter_mut().zip(acc.iter()) {
                *o = self.env.activation.apply(v * os);
            }
        }
        acc.fill(0.0);
    }
}

impl LayerSink for Compute<'_, Merged<'_>> {
    fn begin_task(&mut self, _pe: u32) {}

    fn end_wave(&mut self) {}

    fn inter_hub_task(&mut self, _pe: u32, src: u32, dests: &[u32]) {
        let Merged { state, self_weight } = &mut self.hubs;
        for &d in dests {
            state.ensure_partial(d, *self_weight);
            state.accumulate_from_y(d, src);
        }
    }

    fn finalize_hub(&mut self, hub: u32) {
        let width = self.env.width;
        let out_row = &mut self.rows[(hub - self.row_base) as usize * width..][..width];
        self.hubs.state.finalize_row(hub, self.env.norm, self.env.activation, out_row);
    }
}

/// An island's hub rows merged straight into the layer's partial rows.
struct Merged<'a> {
    state: &'a mut HubMergeState,
    self_weight: f32,
}

impl HubRows for Merged<'_> {
    fn y(&self) -> &[f32] {
        self.state.y()
    }

    fn hub_row(&mut self, _r: usize, hub: u32, acc: &[f32]) {
        self.state.ensure_partial(hub, self.self_weight);
        self.state.accumulate(hub, acc);
    }
}

/// An island's hub rows written out in bitmap-row order (`nh × width`)
/// instead of merged — what a shard exports and a pool worker hands to
/// the sequential merge.
struct Exported<'a> {
    y: &'a [f32],
    out: &'a mut [f32],
}

impl HubRows for Exported<'_> {
    fn y(&self) -> &[f32] {
        self.y
    }

    fn hub_row(&mut self, r: usize, _hub: u32, acc: &[f32]) {
        self.out[r * acc.len()..][..acc.len()].copy_from_slice(acc);
    }
}

/// Runs one island through the export form of `Compute`: activated
/// island-node rows land in `node_out` (the island's contiguous rows of
/// the output) and raw hub-row aggregation results in `hub_out`.
#[allow(clippy::too_many_arguments)]
fn export_island(
    env: &LayerEnv<'_>,
    bm: &IslandBitmap,
    hub_y: &[f32],
    buf: &mut IslandBuffers,
    ready: &mut Vec<bool>,
    node_out: &mut [f32],
    hub_out: &mut [f32],
) {
    let nh = bm.num_hubs();
    debug_assert_eq!(node_out.len(), (bm.dim() - nh) * env.width, "island output slice mismatch");
    debug_assert_eq!(hub_out.len(), nh * env.width, "hub contribution slice mismatch");
    let mut sink = Compute {
        env,
        buf,
        rows: node_out,
        // Island nodes are a contiguous ID range starting at the first
        // non-hub member (unused for an island without nodes).
        row_base: bm.members().get(nh).copied().unwrap_or(0),
        hubs: Exported { y: hub_y, out: hub_out },
    };
    walk_island(&env.cfg, bm, ready, &mut sink);
}

/// Longest-processing-time assignment of `costs.len()` rows to
/// `buckets` bins: rows are visited in descending cost (ties by
/// ascending index) and each goes to the currently lightest bin (ties
/// to the lowest bin index). Returns the bin of each row; every row is
/// assigned to exactly one bin.
///
/// # Panics
///
/// Panics if `buckets == 0`.
fn lpt_assign(costs: &[u64], buckets: usize) -> Vec<usize> {
    assert!(buckets > 0, "at least one bucket is required");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut load = vec![0u64; buckets];
    let mut assignment = vec![0usize; costs.len()];
    for i in order {
        let b = (0..buckets).min_by_key(|&b| load[b]).expect("buckets > 0");
        assignment[i] = b;
        load[b] += costs[i];
    }
    assignment
}

/// Fills the hub XW slab (`H × width`): every hub's combination vector,
/// computed once per layer — the software HUB Matrix XW Cache. Rows are
/// independent, so fanning them across `pool` cannot change a bit.
fn fill_hub_slab(env: &LayerEnv<'_>, pool: Option<&ThreadPool>, slab: &mut [f32]) {
    let LayerEnv { input, weights, norm, width, .. } = *env;
    let num_hubs = env.layout.num_hubs();
    let Some(pool) = pool else {
        for h in 0..num_hubs {
            combine_values_into(input, weights, norm, h as u32, &mut slab[h * width..][..width]);
        }
        return;
    };
    // A hub's combination cost is proportional to its feature-row nnz,
    // which varies wildly across hubs, so rows are binned by cost —
    // longest-processing-time assignment into one bucket per worker —
    // instead of being chunked uniformly.
    let costs: Vec<u64> = (0..num_hubs as u32)
        .map(|h| match input {
            LayerInput::Sparse(x) => x.row_nnz(NodeId::new(h)) as u64 + 1,
            LayerInput::Dense(_) => 1,
        })
        .collect();
    let buckets = pool.threads().min(num_hubs).max(1);
    let assignment = lpt_assign(&costs, buckets);
    let mut bins: Vec<Vec<(u32, &mut [f32])>> = (0..buckets).map(|_| Vec::new()).collect();
    for (h, row) in slab.chunks_mut(width).enumerate() {
        bins[assignment[h]].push((h as u32, row));
    }
    pool.scope(|s| {
        for bin in bins {
            s.spawn(move || {
                for (h, row) in bin {
                    combine_values_into(input, weights, norm, h, row);
                }
            });
        }
    });
}

/// Fans the islands across `pool` through the export form of `Compute`
/// — island-node rows straight into each island's disjoint contiguous
/// range of `out`, hub rows into the pooled contribution slab — then
/// merges the hub rows sequentially in schedule order, so every hub's
/// partial row accumulates in exactly the sequential order.
fn compute_islands_parallel(
    env: &LayerEnv<'_>,
    pool: &ThreadPool,
    scratch: &mut LayerScratch,
    out: &mut [f32],
) {
    let width = env.width;
    let layout = env.layout;
    let num_hubs = layout.num_hubs();
    let islands = layout.partition().islands();
    let LayerScratch { hubs, hub_contrib_slab, island_hub_offsets, .. } = scratch;

    island_hub_offsets.clear();
    island_hub_offsets.push(0);
    let mut hub_slots = 0usize;
    for isl in islands {
        hub_slots += isl.hubs.len();
        island_hub_offsets.push(hub_slots);
    }
    grow_f32(hub_contrib_slab, hub_slots * width);
    {
        // Carve the disjoint per-island output and contribution slices.
        // Island nodes tile `H..n` back to back in island order, so the
        // split order below is exactly the layout's row order.
        let hub_y = hubs.y();
        let (_, mut node_rest) = out.split_at_mut(num_hubs * width);
        let mut hub_rest: &mut [f32] = &mut hub_contrib_slab[..hub_slots * width];
        let slots: Vec<std::sync::Mutex<(&mut [f32], &mut [f32])>> = islands
            .iter()
            .map(|isl| {
                let (node_out, nr) =
                    std::mem::take(&mut node_rest).split_at_mut(isl.nodes.len() * width);
                node_rest = nr;
                let (hub_out, hr) =
                    std::mem::take(&mut hub_rest).split_at_mut(isl.hubs.len() * width);
                hub_rest = hr;
                std::sync::Mutex::new((node_out, hub_out))
            })
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        // Dynamic claiming over the slot list (the atomic hands every
        // index to exactly one worker, so the per-slot locks are never
        // contended); each participating thread reuses one arena.
        let worker = || {
            let mut buf = IslandBuffers::default();
            let mut ready = Vec::new();
            loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= islands.len() {
                    break;
                }
                let mut slot = slots[i].lock().expect("island slot lock");
                let (node_out, hub_out) = &mut *slot;
                let bm = layout.bitmap(i, env.self_in_bitmap);
                export_island(env, bm, hub_y, &mut buf, &mut ready, node_out, hub_out);
            }
        };
        pool.scope(|s| {
            for _ in 0..(pool.threads() - 1).min(islands.len().saturating_sub(1)) {
                s.spawn(worker);
            }
            worker();
        });
    }

    let self_weight = env.norm.self_weight();
    for task_idx in layout.schedule().waves().flatten() {
        let base = island_hub_offsets[task_idx];
        for (j, &hub) in islands[task_idx].hubs.iter().enumerate() {
            hubs.ensure_partial(hub, self_weight);
            hubs.accumulate(hub, &hub_contrib_slab[(base + j) * width..][..width]);
        }
    }
}

/// Executes one GraphCONV layer's **values** over the physical layout,
/// writing activated output rows (layout ID order) into `out`
/// (`num_nodes × width`, row-major): the `Compute` sink alone — no
/// statistics, no cost model, no ring. With a `pool` the islands are
/// fanned across it; the output is bit-identical either way.
///
/// # Panics
///
/// Panics if the input, weight, normalisation or output shapes do not
/// match the layout.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_layer(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: Activation,
    pool: Option<&ThreadPool>,
    scratch: &mut LayerScratch,
    out: &mut [f32],
) {
    let env = LayerEnv::new(layout, cfg, input, weights, norm, activation);
    begin_layer(&env, pool, scratch, out);
    if let Some(pool) = pool {
        compute_islands_parallel(&env, pool, scratch, out);
        let (mut compute, _) = in_engine_sink(&env, scratch, out);
        walk_hubs(layout, &cfg, &mut compute);
    } else {
        let (mut compute, ready) = in_engine_sink(&env, scratch, out);
        walk_layer(layout, &cfg, env.self_in_bitmap, ready, &mut compute);
    }
}

/// Sizes the hub slabs for the layer and fills the hub XW slab.
fn begin_layer(
    env: &LayerEnv<'_>,
    pool: Option<&ThreadPool>,
    scratch: &mut LayerScratch,
    out: &[f32],
) {
    let n = env.layout.graph().num_nodes();
    assert_eq!(out.len(), n * env.width, "output buffer mismatch");
    scratch.hubs.begin_layer(env.layout.num_hubs(), env.width);
    fill_hub_slab(env, pool, scratch.hubs.y_mut());
}

/// The in-engine `Compute` sink over `scratch` and the whole output
/// (hub rows merged in place), plus the walk's group scratch.
fn in_engine_sink<'a>(
    env: &'a LayerEnv<'a>,
    scratch: &'a mut LayerScratch,
    out: &'a mut [f32],
) -> (Compute<'a, Merged<'a>>, &'a mut Vec<bool>) {
    let LayerScratch { island, ready, hubs, .. } = scratch;
    let hubs = Merged { state: hubs, self_weight: env.norm.self_weight() };
    (Compute { env, buf: island, rows: out, row_base: 0, hubs }, ready)
}

/// Executes one GraphCONV layer sequentially over the physical layout —
/// one walk feeding `(Compute, Account)` — writing activated output rows
/// (layout ID order) into `out` (`num_nodes × width`, row-major) and
/// returning the layer's statistics. Bit-identical in values and
/// statistics to `IslandConsumer::execute_layer` on the unpermuted
/// graph.
///
/// # Panics
///
/// Panics if the input, weight, normalisation or output shapes do not
/// match the layout.
#[allow(clippy::too_many_arguments)]
pub fn execute_layer(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: Activation,
    scratch: &mut LayerScratch,
    out: &mut [f32],
) -> LayerExecStats {
    let env = LayerEnv::new(layout, cfg, input, weights, norm, activation);
    begin_layer(&env, None, scratch, out);
    let (compute, ready) = in_engine_sink(&env, scratch, out);
    let account = Account::new(layout, cfg, input.into(), input.num_cols(), env.width, norm);
    let mut sink = (compute, account);
    walk_layer(layout, &cfg, env.self_in_bitmap, ready, &mut sink);
    sink.1.finish()
}

// ---------------------------------------------------------------------
// The `Account` sink
// ---------------------------------------------------------------------

/// The statistics sink: every [`LayerExecStats`] counter and the ring
/// model, from the walk's events alone — no values, no hashing. The
/// hub-shared state (XW cache, partial rows, DHUB-PRC banks) is three
/// slabs over the compact hub IDs.
struct Account<'a> {
    rows: RowCost<'a>,
    width: usize,
    norm: &'a GcnNormalization,
    self_in_bitmap: bool,
    num_pes: u32,
    stats: LayerExecStats,
    /// Hubs whose XW vector is in the cache (first touch charges the
    /// combination, later touches are hits).
    cached: Vec<bool>,
    /// Hubs whose partial row has been initialised.
    partial: Vec<bool>,
    /// DHUB-PRC bank of each hub (`u32::MAX` = unassigned), allocated
    /// round-robin at first appearance.
    bank: Vec<u32>,
    next_bank: u32,
    ring: RingAccountant,
    /// Pending ring wave (`(pe, bank, hub)` triples).
    wave: Vec<(u32, u32, u32)>,
    /// The PE the current island runs on.
    pe: u32,
}

impl<'a> Account<'a> {
    fn new(
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        rows: RowCost<'a>,
        in_dim: usize,
        out_dim: usize,
        norm: &'a GcnNormalization,
    ) -> Self {
        assert_eq!(norm.len(), layout.graph().num_nodes(), "normalisation does not match");
        let num_hubs = layout.num_hubs();
        let mut stats = LayerExecStats { feature_width: out_dim, ..Default::default() };
        // Weights are loaded once and stay in the on-chip Weight Matrix
        // Buffers.
        stats.traffic.weight_bytes = (in_dim * out_dim * 4) as u64;
        stats.island_tasks = layout.partition().num_islands() as u64;
        Account {
            rows,
            width: out_dim,
            norm,
            self_in_bitmap: norm.self_weight() == 1.0,
            num_pes: cfg.num_pes as u32,
            stats,
            cached: vec![false; num_hubs],
            partial: vec![false; num_hubs],
            bank: vec![u32::MAX; num_hubs],
            next_bank: 0,
            ring: RingAccountant::new(cfg.num_pes),
            wave: Vec::new(),
            pe: 0,
        }
    }

    fn charge_combine(&mut self, node: u32) {
        let (macs, muls, feature_bytes) = combine_cost(self.rows, self.width, self.norm, node);
        self.stats.combination_ops.macs += macs;
        self.stats.combination_ops.muls += muls;
        self.stats.traffic.feature_read_bytes += feature_bytes;
    }

    fn touch(&mut self, hub: u32) {
        if std::mem::replace(&mut self.cached[hub as usize], true) {
            self.stats.hub_path.xw_cache_hits += 1;
        } else {
            self.charge_combine(hub);
        }
    }

    fn bank_of(&mut self, hub: u32) -> u32 {
        let i = hub as usize;
        if self.bank[i] == u32::MAX {
            self.bank[i] = self.next_bank;
            self.next_bank = (self.next_bank + 1) % self.num_pes;
            self.stats.hub_path.hub_rows_allocated += 1;
        }
        self.bank[i]
    }

    /// The self contribution `self_weight · y_hub` a partial row starts
    /// from.
    fn ensure_partial(&mut self, hub: u32) {
        if !std::mem::replace(&mut self.partial[hub as usize], true) {
            self.stats.aggregation.unpruned_vector_ops += 1;
            self.stats.aggregation.executed_vector_adds += 1;
        }
    }

    /// A finished row: the post-scale and the output write.
    fn write_row(&mut self, node: u32) {
        if self.norm.out_scale(NodeId::new(node)) != 1.0 {
            self.stats.combination_ops.muls += self.width as u64;
        }
        self.stats.traffic.output_write_bytes += self.width as u64 * F32_BYTES;
    }

    /// Folds the ring counters in and returns the layer's statistics.
    fn finish(mut self) -> LayerExecStats {
        let rs = self.ring.stats();
        self.stats.hub_path.local_bank_hits = rs.local_hits;
        self.stats.hub_path.ring_hops = rs.hops;
        self.stats.hub_path.in_network_reductions = rs.reductions;
        self.stats
    }
}

impl IslandSink for Account<'_> {
    fn begin_island(&mut self, _bm: &IslandBitmap) {}

    fn combine(&mut self, _i: usize, node: u32, is_hub: bool) {
        if is_hub {
            self.touch(node);
        } else {
            self.charge_combine(node);
        }
    }

    fn materialize(&mut self, _g: usize, _start: usize, size: usize) {
        self.stats.aggregation.preagg_vector_adds += size as u64 - 1;
    }

    fn window(&mut self, _g: usize, mask: u64, decision: WindowDecision) {
        let agg = &mut self.stats.aggregation;
        agg.unpruned_vector_ops += mask.count_ones() as u64;
        match decision {
            WindowDecision::Skip => agg.windows_skipped += 1,
            WindowDecision::Direct { adds } => {
                agg.windows_direct += 1;
                agg.executed_vector_adds += adds as u64;
            }
            WindowDecision::Reuse { subs } => {
                agg.windows_reused += 1;
                agg.executed_vector_adds += 1;
                agg.executed_vector_subs += subs as u64;
            }
        }
    }

    fn finish_row(&mut self, _r: usize, node: u32, is_hub: bool) {
        if is_hub {
            // The partial goes to its DHUB-PRC bank over the ring.
            let bank = self.bank_of(node);
            self.ensure_partial(node);
            self.stats.hub_path.hub_updates += 1;
            self.wave.push((self.pe, bank, node));
        } else {
            if !self.self_in_bitmap {
                self.stats.aggregation.unpruned_vector_ops += 1;
                self.stats.aggregation.executed_vector_adds += 1;
            }
            self.write_row(node);
        }
    }
}

impl LayerSink for Account<'_> {
    fn begin_task(&mut self, pe: u32) {
        self.pe = pe;
    }

    fn end_wave(&mut self) {
        if !self.wave.is_empty() {
            self.ring.record_wave(&self.wave);
            self.wave.clear();
        }
    }

    fn inter_hub_task(&mut self, pe: u32, src: u32, dests: &[u32]) {
        self.touch(src);
        for &d in dests {
            let bank = self.bank_of(d);
            self.touch(d);
            self.ensure_partial(d);
            self.stats.aggregation.unpruned_vector_ops += 1;
            self.stats.aggregation.executed_vector_adds += 1;
            self.stats.hub_path.hub_updates += 1;
            self.wave.push((pe, bank, d));
        }
        self.stats.inter_hub_tasks += 1;
    }

    fn finalize_hub(&mut self, hub: u32) {
        if !self.partial[hub as usize] {
            // Hub untouched by any task (degenerate graphs only): its
            // output is the self contribution alone.
            self.touch(hub);
            self.ensure_partial(hub);
        }
        self.write_row(hub);
    }
}

/// The `Account` walk over rows priced as `rows` (`in_dim` wide):
/// everything [`account_layer`] does, plus the deferred-rows form the
/// request-independent plan is built from.
pub(crate) fn account_rows(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    rows: RowCost<'_>,
    in_dim: usize,
    out_dim: usize,
    norm: &GcnNormalization,
) -> LayerExecStats {
    let mut account = Account::new(layout, cfg, rows, in_dim, out_dim, norm);
    walk_layer(layout, &cfg, account.self_in_bitmap, &mut Vec::new(), &mut account);
    account.finish()
}

/// Computes the statistics [`execute_layer`] would return for a layer of
/// `out_dim` outputs over `input`, *without* any floating-point work:
/// the `Account` sink alone over the same walk.
///
/// # Panics
///
/// Panics if the input or normalisation do not match the layout.
pub fn account_layer(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    out_dim: usize,
    norm: &GcnNormalization,
) -> LayerExecStats {
    assert_eq!(
        input.num_rows(),
        layout.graph().num_nodes(),
        "input row count does not match the graph"
    );
    account_rows(layout, cfg, input.into(), input.num_cols(), out_dim, norm)
}

// ---------------------------------------------------------------------
// Shard export hooks (`igcn-shard`)
// ---------------------------------------------------------------------
//
// A sharded deployment splits the island schedule across engines: each
// shard executes its islands locally (island closure makes island-node
// rows shard-complete) and *exports* its per-island hub contributions;
// a coordinator then replays the hub-shared state in global schedule
// order — the distributed twin of the pool fan-out above, with shards
// in place of pool workers.

/// Worker-local arenas for shard-side island execution. One per shard,
/// reused across layers and requests.
#[derive(Default)]
pub struct IslandArena {
    buf: IslandBuffers,
    ready: Vec<bool>,
}

impl IslandArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        IslandArena::default()
    }
}

/// Executes every island of `layout` with hub combination vectors
/// served from the prefilled `hub_y` slab (`layout.num_hubs() × width`
/// rows, broadcast by the coordinator), writing **activated island-node
/// rows** into `node_out` (layout order, rows `H..n`, row-major) and
/// raw per-(island, contacted-hub) aggregation results into
/// `hub_contrib` (islands back to back; island `i`'s slots start at
/// `hub_offsets[i]`, one `width`-wide slot per contacted hub in the
/// island's first-contact hub order).
///
/// Each island runs the walk with the export form of the `Compute` sink
/// — the arithmetic `execute_layer` and the engine run — so a
/// coordinator that replays the exported contributions in global
/// schedule order (see [`HubMergeState`]) reproduces the single-engine
/// layer bit for bit.
///
/// # Panics
///
/// Panics if the input/weight/normalisation shapes do not match the
/// layout or the output slices are mis-sized.
#[allow(clippy::too_many_arguments)]
pub fn execute_islands_export(
    layout: &IslandLayout,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: Activation,
    hub_y: &[f32],
    arena: &mut IslandArena,
    node_out: &mut [f32],
    hub_contrib: &mut [f32],
    hub_offsets: &[usize],
) {
    let env = LayerEnv::new(layout, cfg, input, weights, norm, activation);
    let width = env.width;
    let num_hubs = layout.num_hubs();
    let islands = layout.partition().islands();
    assert_eq!(hub_offsets.len(), islands.len() + 1, "hub offset table mismatch");
    assert_eq!(hub_y.len(), num_hubs * width, "hub XW slab mismatch");
    assert_eq!(
        node_out.len(),
        (layout.graph().num_nodes() - num_hubs) * width,
        "island output slab mismatch"
    );
    assert_eq!(hub_contrib.len(), hub_offsets[islands.len()] * width, "contribution slab mismatch");

    let mut node_rest: &mut [f32] = node_out;
    let mut hub_rest: &mut [f32] = hub_contrib;
    for (idx, isl) in islands.iter().enumerate() {
        let (island_nodes, nr) =
            std::mem::take(&mut node_rest).split_at_mut(isl.nodes.len() * width);
        node_rest = nr;
        let (island_hubs, hr) = std::mem::take(&mut hub_rest).split_at_mut(isl.hubs.len() * width);
        hub_rest = hr;
        let bm = layout.bitmap(idx, env.self_in_bitmap);
        let IslandArena { buf, ready } = arena;
        export_island(&env, bm, hub_y, buf, ready, island_nodes, island_hubs);
    }
}

/// Hub state of one layer — the XW slab and the partial-result rows —
/// and the coordinator's half of a sharded layer. The caller drives it
/// in the exact single-engine order: islands in global schedule order
/// (per island: [`ensure_partial`] then [`accumulate`] for each
/// contacted hub, hub order preserved), then inter-hub tasks in the
/// layout's replay order, then [`finalize_into`] — and the resulting hub
/// rows are bit-identical to `execute_layer`'s, whose `Compute` sink
/// makes the same transitions over the same slabs.
///
/// [`ensure_partial`]: HubMergeState::ensure_partial
/// [`accumulate`]: HubMergeState::accumulate
/// [`finalize_into`]: HubMergeState::finalize_into
#[derive(Debug, Clone, Default)]
pub struct HubMergeState {
    width: usize,
    /// Hub XW slab (`H × width`), filled once per layer via
    /// [`HubMergeState::y_mut`].
    y: Vec<f32>,
    partial: Vec<f32>,
    partial_ready: Vec<bool>,
}

impl HubMergeState {
    /// Creates an empty merge state; slabs grow on first use.
    pub fn new() -> Self {
        HubMergeState::default()
    }

    /// Prepares the slabs for a layer of `width`-wide vectors over
    /// `num_hubs` hubs.
    pub fn begin_layer(&mut self, num_hubs: usize, width: usize) {
        self.width = width;
        self.y.resize(num_hubs * width, 0.0);
        self.partial.resize(num_hubs * width, 0.0);
        self.partial_ready.clear();
        self.partial_ready.resize(num_hubs, false);
    }

    /// The hub XW slab, to be filled with `combine_values_into` rows
    /// (hub `h`'s vector at `h * width`). This is the slab shards read
    /// their halo hub vectors from.
    pub fn y_mut(&mut self) -> &mut [f32] {
        &mut self.y
    }

    /// The filled hub XW slab.
    pub fn y(&self) -> &[f32] {
        &self.y
    }

    /// Initialises hub `hub`'s partial row with its self contribution
    /// `self_weight · y_hub` on first touch.
    pub fn ensure_partial(&mut self, hub: u32, self_weight: f32) {
        let (i, width) = (hub as usize, self.width);
        if !std::mem::replace(&mut self.partial_ready[i], true) {
            let row = &mut self.partial[i * width..][..width];
            row.fill(0.0);
            axpy(row, &self.y[i * width..][..width], self_weight);
        }
    }

    /// Accumulates an exported island contribution into the hub's
    /// partial row.
    pub fn accumulate(&mut self, hub: u32, delta: &[f32]) {
        add_row(&mut self.partial[hub as usize * self.width..][..self.width], delta);
    }

    /// Accumulates hub `src`'s XW vector into hub `dst`'s partial row
    /// (the inter-hub PUSH step; the slabs are disjoint, so no copy).
    pub fn accumulate_from_y(&mut self, dst: u32, src: u32) {
        add_row(
            &mut self.partial[dst as usize * self.width..][..self.width],
            &self.y[src as usize * self.width..][..self.width],
        );
    }

    /// Post-scales hub `hub`'s completed partial result and applies the
    /// activation. A hub no task touched (degenerate graphs only) is its
    /// self contribution alone.
    fn finalize_row(
        &mut self,
        hub: u32,
        norm: &GcnNormalization,
        activation: Activation,
        out_row: &mut [f32],
    ) {
        self.ensure_partial(hub, norm.self_weight());
        let os = norm.out_scale(NodeId::new(hub));
        let partial = &self.partial[hub as usize * self.width..][..self.width];
        for (o, &v) in out_row.iter_mut().zip(partial) {
            *o = activation.apply(v * os);
        }
    }

    /// Finalises every hub row — untouched hubs get their self
    /// contribution, every row is post-scaled and activated — writing
    /// the activated rows into `hub_out` (`H × width`, hub-ID order;
    /// `norm` must be indexed so hub `h` is node `h`, i.e. the
    /// layout-order normalisation).
    pub fn finalize_into(
        &mut self,
        norm: &GcnNormalization,
        activation: Activation,
        hub_out: &mut [f32],
    ) {
        let width = self.width;
        let num_hubs = self.partial_ready.len();
        assert_eq!(hub_out.len(), num_hubs * width, "hub output slab mismatch");
        for h in 0..num_hubs {
            self.finalize_row(h as u32, norm, activation, &mut hub_out[h * width..][..width]);
        }
    }
}

/// The positions of the set bits of `bits`, lowest first.
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(b)
    })
}

#[inline]
fn add_row(row: &mut [f32], delta: &[f32]) {
    for (p, &d) in row.iter_mut().zip(delta) {
        *p += d;
    }
}

#[inline]
fn sub_row(row: &mut [f32], delta: &[f32]) {
    for (p, &d) in row.iter_mut().zip(delta) {
        *p -= d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::consumer::IslandConsumer;
    use crate::locator::islandize;
    use igcn_gnn::{GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::{CsrGraph, Permutation, SparseFeatures};

    fn setup(
        n: usize,
        noise: f64,
        seed: u64,
    ) -> (CsrGraph, crate::partition::IslandPartition, SparseFeatures) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        let x = SparseFeatures::random(n, 12, 0.4, seed ^ 0xBEEF);
        (g.graph, p, x)
    }

    /// Islands of up to 131 members under a large `c_max`: bitmap rows
    /// of one, two and three words, so windows straddle word boundaries
    /// at every `k` that does not divide 64.
    fn setup_wide() -> (CsrGraph, crate::partition::IslandPartition, SparseFeatures) {
        let g = HubIslandConfig::new(400, 6)
            .island_size_range(65, 135)
            .island_density(0.12)
            .noise_fraction(0.0)
            .generate(1);
        let p = islandize(&g.graph, &IslandizationConfig::default().with_c_max(160));
        let mut words: Vec<usize> =
            p.islands().iter().map(|i| (i.hubs.len() + i.nodes.len()).div_ceil(64)).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words, [1, 2, 3], "bitmap words per row of the wide partition");
        (g.graph, p, SparseFeatures::random(400, 12, 0.4, 0xBEEF))
    }

    /// Output widths on both sides of one SIMD vector (the narrow dense
    /// combination arm) and of 64 columns, odd tails included.
    const WIDTHS: [usize; 10] = [1, 3, 7, 8, 9, 16, 17, 64, 65, 130];

    /// The window widths the wide partition runs at, with the two
    /// non-default policies at the default `k`.
    fn wide_configs() -> Vec<ConsumerConfig> {
        let default = ConsumerConfig::default();
        let mut configs: Vec<_> = [2, 3, 4, 8, 64].iter().map(|&k| default.with_k(k)).collect();
        configs.push(default.with_redundancy_removal(false));
        configs.push(default.with_preagg(PreaggPolicy::Lazy));
        configs
    }

    /// A GCN (self bit in the bitmap) and a GIN (separate scaled self
    /// add) whose first layer is `12 → width` and second `width → width`.
    fn models_of_width(width: usize) -> [GnnModel; 2] {
        [GnnModel::gcn(12, width, width), GnnModel::gin(12, width, width, 0.3)]
    }

    /// `rows` (layout order, `width` wide) scattered back to original
    /// node IDs.
    fn unpermute(layout: &IslandLayout, rows: &[f32], width: usize) -> DenseMatrix {
        let n = layout.graph().num_nodes();
        let mut out = DenseMatrix::zeros(n, width);
        for old in 0..n {
            let new = layout.forward()[old] as usize;
            out.row_mut(old).copy_from_slice(&rows[new * width..][..width]);
        }
        out
    }

    /// The chain that pins the engine's plan, for one layer: `Account`
    /// alone == `(Compute, Account)` == the reference PE on every
    /// statistic, and `(Compute, Account)` == the reference PE on every
    /// value. `dense` feeds the features as a dense matrix (the layer
    /// ≥ 1 combination arm) instead of sparse rows.
    #[allow(clippy::too_many_arguments)]
    fn assert_layer_matches_legacy(
        g: &CsrGraph,
        p: &crate::partition::IslandPartition,
        layout: &IslandLayout,
        x: &SparseFeatures,
        dense: bool,
        model: &GnnModel,
        weights: &DenseMatrix,
        cfg: ConsumerConfig,
        what: &str,
    ) {
        let n = g.num_nodes();
        let gathered = x.gather_rows(layout.gather_order());
        let as_dense = |x: &SparseFeatures| DenseMatrix::from_vec(n, x.num_cols(), x.to_dense());
        let (x_dense, gathered_dense) = (as_dense(x), as_dense(&gathered));
        let (legacy_in, hot_in) = if dense {
            (LayerInput::Dense(&x_dense), LayerInput::Dense(&gathered_dense))
        } else {
            (LayerInput::Sparse(x), LayerInput::Sparse(&gathered))
        };
        let norm = model.normalization(g);
        let (legacy_out, legacy_stats) = IslandConsumer::new(g, p, cfg).execute_layer(
            legacy_in,
            weights,
            &norm,
            Activation::Relu,
        );
        // The layout norm is computed on the permuted graph: same
        // degrees, bitwise-equal scales.
        let hot_norm = model.normalization(layout.graph());
        let mut buf = vec![0.0f32; n * weights.cols()];
        let hot_stats = execute_layer(
            layout,
            cfg,
            hot_in,
            weights,
            &hot_norm,
            Activation::Relu,
            &mut LayerScratch::new(),
            &mut buf,
        );
        assert_eq!(unpermute(layout, &buf, weights.cols()), legacy_out, "{what}: values");
        assert_eq!(hot_stats, legacy_stats, "{what}: stats");
        let accounted = account_layer(layout, cfg, hot_in, weights.cols(), &hot_norm);
        assert_eq!(accounted, legacy_stats, "{what}: Account alone");
    }

    #[test]
    fn hot_path_is_bit_identical_to_legacy_layer() {
        let default = ConsumerConfig::default();
        let mut configs = vec![
            default,
            default.with_redundancy_removal(false),
            default.with_preagg(PreaggPolicy::Lazy),
        ];
        configs.extend([2, 3, 4, 8].map(|k| default.with_k(k)));
        for (noise, seed) in [(0.0, 1), (0.08, 2), (0.2, 3)] {
            let (g, p, x) = setup(220, noise, seed);
            let layout = IslandLayout::new(&g, &p, default.num_pes);
            for model in
                [GnnModel::gcn(12, 7, 3), GnnModel::gin(12, 7, 3, 0.3), GnnModel::gcn(12, 70, 3)]
            {
                let w = ModelWeights::glorot(&model, seed + 10);
                for &cfg in &configs {
                    let what = format!("noise={noise} {:?} {cfg:?}", model.kind());
                    assert_layer_matches_legacy(
                        &g,
                        &p,
                        &layout,
                        &x,
                        false,
                        &model,
                        w.layer(0),
                        cfg,
                        &what,
                    );
                }
            }
        }
        // Multi-word bitmap rows at every output width, sparse and
        // dense combination.
        let (g, p, x) = setup_wide();
        let layout = IslandLayout::new(&g, &p, default.num_pes);
        for width in WIDTHS {
            for model in models_of_width(width) {
                let w = ModelWeights::glorot(&model, 17);
                for cfg in wide_configs() {
                    for dense in [false, true] {
                        let what =
                            format!("wide width={width} dense={dense} {:?} {cfg:?}", model.kind());
                        assert_layer_matches_legacy(
                            &g,
                            &p,
                            &layout,
                            &x,
                            dense,
                            &model,
                            w.layer(0),
                            cfg,
                            &what,
                        );
                    }
                }
            }
        }
    }

    /// Sequential `(Compute, Account)`, `Compute` alone and the pooled
    /// form at 1, 2 and 8 threads agree on every bit and statistic, for
    /// the sparse first layer and the dense second one.
    fn assert_parallel_matches_sequential(
        layout: &IslandLayout,
        x: &SparseFeatures,
        cfg: ConsumerConfig,
        model: &GnnModel,
        what: &str,
    ) {
        let w = ModelWeights::glorot(model, 11);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let n = layout.graph().num_nodes();
        let width = w.layer(0).cols();
        let mut seq_buf = vec![0.0f32; n * width];
        let mut scratch = LayerScratch::new();
        let seq_stats = execute_layer(
            layout,
            cfg,
            LayerInput::Sparse(&gathered),
            w.layer(0),
            &norm,
            Activation::Relu,
            &mut scratch,
            &mut seq_buf,
        );
        // The stats-free form the engine runs.
        let mut compute_buf = vec![0.0f32; n * width];
        compute_layer(
            layout,
            cfg,
            LayerInput::Sparse(&gathered),
            w.layer(0),
            &norm,
            Activation::Relu,
            None,
            &mut scratch,
            &mut compute_buf,
        );
        assert_eq!(compute_buf, seq_buf, "{what}: Compute alone");
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let mut par_buf = vec![0.0f32; n * width];
            let mut par_scratch = LayerScratch::new();
            compute_layer(
                layout,
                cfg,
                LayerInput::Sparse(&gathered),
                w.layer(0),
                &norm,
                Activation::Relu,
                Some(&pool),
                &mut par_scratch,
                &mut par_buf,
            );
            let par_stats = account_layer(layout, cfg, LayerInput::Sparse(&gathered), width, &norm);
            assert_eq!(par_buf, seq_buf, "{what}: values at {threads} threads");
            assert_eq!(par_stats, seq_stats, "{what}: stats at {threads} threads");
        }
        // Dense (layer ≥ 1) input path, sequential vs parallel.
        let dense = DenseMatrix::from_vec(n, width, seq_buf.clone());
        let mut seq1 = vec![0.0f32; n * w.layer(1).cols()];
        let seq1_stats = execute_layer(
            layout,
            cfg,
            LayerInput::Dense(&dense),
            w.layer(1),
            &norm,
            Activation::None,
            &mut scratch,
            &mut seq1,
        );
        let pool = ThreadPool::new(4);
        let mut par1 = vec![0.0f32; n * w.layer(1).cols()];
        compute_layer(
            layout,
            cfg,
            LayerInput::Dense(&dense),
            w.layer(1),
            &norm,
            Activation::None,
            Some(&pool),
            &mut scratch,
            &mut par1,
        );
        let par1_stats =
            account_layer(layout, cfg, LayerInput::Dense(&dense), w.layer(1).cols(), &norm);
        assert_eq!(par1, seq1, "{what}: dense layer values");
        assert_eq!(par1_stats, seq1_stats, "{what}: dense layer stats");
    }

    #[test]
    fn hot_path_parallel_is_bit_identical_to_sequential() {
        let (g, p, x) = setup(260, 0.05, 7);
        let cfg = ConsumerConfig::default();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        for model in [GnnModel::gcn(12, 6, 4), GnnModel::gin(12, 6, 4, 0.2)] {
            assert_parallel_matches_sequential(
                &layout,
                &x,
                cfg,
                &model,
                &format!("{:?}", model.kind()),
            );
        }
        let (g, p, x) = setup_wide();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        for width in WIDTHS {
            for model in models_of_width(width) {
                for cfg in wide_configs() {
                    let what = format!("wide width={width} {:?} {cfg:?}", model.kind());
                    assert_parallel_matches_sequential(&layout, &x, cfg, &model, &what);
                }
            }
        }
    }

    /// The shard contract: islands executed through the export hook plus
    /// a schedule-order merge of the exported hub contributions must
    /// equal `execute_layer` bit for bit (values; the hooks do no
    /// statistics work). Exercised with the whole layout as one "shard".
    fn assert_export_and_merge_match(
        layout: &IslandLayout,
        x: &SparseFeatures,
        cfg: ConsumerConfig,
        model: &GnnModel,
        what: &str,
    ) {
        let w = ModelWeights::glorot(model, 26);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let n = layout.graph().num_nodes();
        let num_hubs = layout.num_hubs();
        let width = w.layer(0).cols();

        let mut reference = vec![0.0f32; n * width];
        let mut scratch = LayerScratch::new();
        execute_layer(
            layout,
            cfg,
            LayerInput::Sparse(&gathered),
            w.layer(0),
            &norm,
            Activation::Relu,
            &mut scratch,
            &mut reference,
        );

        // Coordinator: prefill the hub XW slab.
        let mut merge = HubMergeState::new();
        merge.begin_layer(num_hubs, width);
        for h in 0..num_hubs as u32 {
            combine_values_into(
                LayerInput::Sparse(&gathered),
                w.layer(0),
                &norm,
                h,
                &mut merge.y_mut()[h as usize * width..][..width],
            );
        }

        // Shard: islands through the export hook.
        let islands = layout.partition().islands();
        let mut offsets = vec![0usize];
        for isl in islands {
            offsets.push(offsets.last().unwrap() + isl.hubs.len());
        }
        let mut node_out = vec![0.0f32; (n - num_hubs) * width];
        let mut contrib = vec![0.0f32; offsets[islands.len()] * width];
        let mut arena = IslandArena::new();
        let hub_y = merge.y().to_vec();
        execute_islands_export(
            layout,
            cfg,
            LayerInput::Sparse(&gathered),
            w.layer(0),
            &norm,
            Activation::Relu,
            &hub_y,
            &mut arena,
            &mut node_out,
            &mut contrib,
            &offsets,
        );

        // Coordinator: schedule-order merge + inter-hub + finalise.
        for wave in layout.schedule().waves() {
            for idx in wave {
                let base = offsets[idx];
                for (j, &hub) in islands[idx].hubs.iter().enumerate() {
                    merge.ensure_partial(hub, norm.self_weight());
                    merge.accumulate(hub, &contrib[(base + j) * width..][..width]);
                }
            }
        }
        for (src, dests) in layout.inter_hub_tasks() {
            for &d in dests {
                merge.ensure_partial(d, norm.self_weight());
                merge.accumulate_from_y(d, *src);
            }
        }
        let mut hub_rows = vec![0.0f32; num_hubs * width];
        merge.finalize_into(&norm, Activation::Relu, &mut hub_rows);

        let (ref_hubs, ref_nodes) = reference.split_at(num_hubs * width);
        assert_eq!(&node_out[..], ref_nodes, "{what}: exported island rows diverged");
        assert_eq!(&hub_rows[..], ref_hubs, "{what}: merged hub rows diverged");
    }

    #[test]
    fn export_and_merge_hooks_reproduce_the_layer_bitwise() {
        let cfg = ConsumerConfig::default();
        for (noise, seed) in [(0.0, 21), (0.1, 22)] {
            let (g, p, x) = setup(240, noise, seed);
            let layout = IslandLayout::new(&g, &p, cfg.num_pes);
            for model in [GnnModel::gcn(12, 7, 3), GnnModel::gin(12, 7, 3, 0.3)] {
                let what = format!("{:?} noise={noise}", model.kind());
                assert_export_and_merge_match(&layout, &x, cfg, &model, &what);
            }
        }
        let (g, p, x) = setup_wide();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        for width in WIDTHS {
            for model in models_of_width(width) {
                for cfg in wide_configs() {
                    let what = format!("wide width={width} {:?} {cfg:?}", model.kind());
                    assert_export_and_merge_match(&layout, &x, cfg, &model, &what);
                }
            }
        }
    }

    #[test]
    fn scratch_arena_stops_growing_after_first_layer() {
        // Arenas grow once to the widest layer and then hold: a narrow
        // layer, a wider one, the narrow one again. Every island of
        // every run enters with an all-zero accumulator (the
        // `debug_assert!` in `begin_island`): `finish_row` leaves it
        // cleared, hub rows included, whatever the width before.
        let (g, p, x) = setup(200, 0.05, 5);
        let cfg = ConsumerConfig::default();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        let model = GnnModel::gcn(12, 8, 40);
        let w = ModelWeights::glorot(&model, 3);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let n = g.num_nodes();
        let mut scratch = LayerScratch::new();
        let narrow = |scratch: &mut LayerScratch| {
            let mut out = vec![0.0f32; n * 8];
            let input = LayerInput::Sparse(&gathered);
            let stats = execute_layer(
                &layout,
                cfg,
                input,
                w.layer(0),
                &norm,
                Activation::Relu,
                scratch,
                &mut out,
            );
            (out, stats)
        };
        let first = narrow(&mut scratch);
        let narrow_bytes = scratch.arena_bytes();
        assert!(narrow_bytes > 0);
        let hidden = DenseMatrix::from_vec(n, 8, first.0.clone());
        let wide = |scratch: &mut LayerScratch| {
            let mut out = vec![0.0f32; n * 40];
            let input = LayerInput::Dense(&hidden);
            let stats = execute_layer(
                &layout,
                cfg,
                input,
                w.layer(1),
                &norm,
                Activation::None,
                scratch,
                &mut out,
            );
            (out, stats)
        };
        let first_wide = wide(&mut scratch);
        let warm_bytes = scratch.arena_bytes();
        assert!(warm_bytes > narrow_bytes, "the wider layer must have grown the arenas");
        for _ in 0..3 {
            assert_eq!(narrow(&mut scratch), first, "repeated layers must be deterministic");
            assert_eq!(wide(&mut scratch), first_wide, "repeated layers must be deterministic");
            assert_eq!(
                scratch.arena_bytes(),
                warm_bytes,
                "scratch arenas must not grow after warm-up"
            );
        }
    }

    #[test]
    fn lpt_assignment_covers_every_row_exactly_once() {
        let costs = [9u64, 1, 7, 3, 3, 1, 8, 2];
        let total: u64 = costs.iter().sum();
        for buckets in [1usize, 2, 3, 8, 16] {
            let a = lpt_assign(&costs, buckets);
            assert_eq!(a.len(), costs.len());
            assert!(a.iter().all(|&b| b < buckets), "{buckets} buckets: {a:?}");
            let mut load = vec![0u64; buckets];
            for (i, &b) in a.iter().enumerate() {
                load[b] += costs[i];
            }
            // Coverage: the loads account for every row's cost exactly once.
            assert_eq!(load.iter().sum::<u64>(), total, "{buckets} buckets");
            // The LPT guarantee: no bin exceeds the ideal share by more
            // than the largest single item.
            let ideal = total.div_ceil(buckets as u64);
            assert!(*load.iter().max().unwrap() <= ideal + 9, "{buckets} buckets: {load:?}");
        }
        assert!(lpt_assign(&[], 3).is_empty());
    }

    #[test]
    fn identity_layout_matches_legacy_on_the_original_graph() {
        // A layout is just a permutation; with noise 0 and default
        // config the partition ordering may or may not be identity —
        // either way the scatter/gather contract must hold. Exercise the
        // remap explicitly with a known permutation round trip.
        let (g, p, x) = setup(150, 0.0, 9);
        let cfg = ConsumerConfig::default();
        let layout = IslandLayout::new(&g, &p, cfg.num_pes);
        let perm = layout.permutation().clone();
        assert_eq!(perm.len(), g.num_nodes());
        // gather ∘ forward == identity on feature rows.
        let gathered = x.gather_rows(layout.gather_order());
        let back = gathered.gather_rows(
            Permutation::from_forward(layout.forward().to_vec()).unwrap().inverse().as_forward(),
        );
        // forward[old] = new; inverse of gather order is forward itself.
        let again = gathered.gather_rows(layout.forward());
        assert_eq!(again, x);
        let _ = back;
    }
}
