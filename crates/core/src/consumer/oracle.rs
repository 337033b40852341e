//! Every [`LayerExecStats`] field of one layer, re-derived from the
//! partition in *original* node IDs with no call into the walk: what
//! the `Account` sink of [`super::hotpath`] must report.
//!
//! Islands run in [`IslandSchedule`] wave order (island `i` on PE
//! `i mod num_pes`) over bitmaps built afresh by `IslandBitmap::build`,
//! with the diagonal for unit self-weight layers and without it
//! otherwise. Each window's bits are read one by one with
//! `IslandBitmap::get`, classified by [`WindowDecision::decide`] and
//! priced as one add per set bit (direct) or one add plus one sub per
//! clear bit (reuse); with redundancy removal on, every group of `s`
//! members costs `s − 1` pre-aggregation adds, once per island.
//! Combining `v` costs `nnz(v) · out` MACs and `min(nnz · 8,
//! in · 4)` bytes (dense rows: `nnz = in`, `in · 4` bytes) plus `out`
//! muls when `s_in(v) ≠ 1`. A hub's first touch combines it, later ones
//! are XW hits; its first update takes the next bank round-robin and
//! initialises its partial row (one add). Inter-hub tasks run by
//! ascending original source hub, and the ring counters come from the
//! same `(pe, bank, hub)` waves fed to [`RingAccountant`].

use std::collections::{BTreeMap, HashMap, HashSet};

use igcn_graph::{CsrGraph, NodeId};
use igcn_linalg::GcnNormalization;

use crate::config::ConsumerConfig;
use crate::island::IslandBitmap;
use crate::partition::IslandPartition;
use crate::schedule::IslandSchedule;
use crate::stats::LayerExecStats;

use super::ring::RingAccountant;
use super::window::WindowDecision;
use super::LayerInput;

/// The statistics of a layer of `out_dim` outputs over `input` (rows in
/// original IDs), normalised by `norm` over `graph`.
pub(crate) fn layer_stats(
    graph: &CsrGraph,
    partition: &IslandPartition,
    cfg: ConsumerConfig,
    input: LayerInput<'_>,
    out_dim: usize,
    norm: &GcnNormalization,
) -> LayerExecStats {
    let mut o = Oracle {
        input,
        out: out_dim as u64,
        norm,
        num_pes: cfg.num_pes as u32,
        s: LayerExecStats { feature_width: out_dim, ..Default::default() },
        cached: HashSet::new(),
        bank: HashMap::new(),
        partial: HashSet::new(),
        ring: RingAccountant::new(cfg.num_pes),
        wave: Vec::new(),
    };
    o.s.traffic.weight_bytes = (input.num_cols() * out_dim * 4) as u64;
    o.s.island_tasks = partition.num_islands() as u64;
    let self_in_bitmap = norm.self_weight() == 1.0;

    for wave in IslandSchedule::new(graph, partition, cfg.num_pes).waves() {
        for idx in wave {
            let island = &partition.islands()[idx];
            let bm = IslandBitmap::build(graph, &island.hubs, &island.nodes, self_in_bitmap);
            let (dim, nh) = (bm.dim(), bm.num_hubs());
            let members: Vec<u32> = island.hubs.iter().chain(&island.nodes).copied().collect();
            for (i, &m) in members.iter().enumerate() {
                if i < nh {
                    o.touch(m);
                } else {
                    o.combine(m);
                }
            }
            let groups: Vec<(usize, u64)> =
                (0..dim).step_by(cfg.k).map(|at| (at, cfg.k.min(dim - at) as u64)).collect();
            if cfg.redundancy_removal {
                // Every group is pre-aggregated at combination (§3.3.1).
                o.s.aggregation.preagg_vector_adds +=
                    groups.iter().map(|&(_, size)| size - 1).sum::<u64>();
            }
            for (r, &member) in members.iter().enumerate() {
                for &(at, size) in &groups {
                    let mask = (0..size).filter(|&b| bm.get(r, at + b as usize));
                    let mask = mask.fold(0u64, |m, b| m | 1 << b);
                    let set = mask.count_ones() as u64;
                    let agg = &mut o.s.aggregation;
                    agg.unpruned_vector_ops += set;
                    let decision =
                        WindowDecision::decide(mask, size as usize, cfg.redundancy_removal);
                    match decision {
                        WindowDecision::Skip => agg.windows_skipped += 1,
                        WindowDecision::Direct { .. } => {
                            agg.windows_direct += 1;
                            agg.executed_vector_adds += set;
                        }
                        WindowDecision::Reuse { .. } => {
                            agg.windows_reused += 1;
                            agg.executed_vector_adds += 1;
                            agg.executed_vector_subs += size - set;
                        }
                    }
                }
                if r < nh {
                    o.update_hub((idx % cfg.num_pes) as u32, member);
                } else {
                    if !self_in_bitmap {
                        o.s.aggregation.unpruned_vector_ops += 1;
                        o.s.aggregation.executed_vector_adds += 1;
                    }
                    o.write_row(member);
                }
            }
        }
        o.flush();
    }

    let mut by_source: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b) in partition.inter_hub_edges() {
        by_source.entry(a).or_default().push(b);
        by_source.entry(b).or_default().push(a);
    }
    for (t, (&src, dests)) in by_source.iter().enumerate() {
        o.touch(src);
        for &d in dests {
            o.touch(d);
            o.update_hub((t % cfg.num_pes) as u32, d);
            o.s.aggregation.unpruned_vector_ops += 1;
            o.s.aggregation.executed_vector_adds += 1;
        }
        o.s.inter_hub_tasks += 1;
        if (t + 1) % cfg.num_pes == 0 {
            o.flush();
        }
    }
    o.flush();

    for &h in partition.hubs() {
        if !o.partial.contains(&h) {
            o.touch(h);
            o.init_partial(h);
        }
        o.write_row(h);
    }
    o.s.hub_path.hub_rows_allocated = o.bank.len() as u64;
    let ring = o.ring.stats();
    o.s.hub_path.local_bank_hits = ring.local_hits;
    o.s.hub_path.ring_hops = ring.hops;
    o.s.hub_path.in_network_reductions = ring.reductions;
    o.s
}

struct Oracle<'a> {
    input: LayerInput<'a>,
    out: u64,
    norm: &'a GcnNormalization,
    num_pes: u32,
    s: LayerExecStats,
    /// Hubs whose XW vector has been computed.
    cached: HashSet<u32>,
    bank: HashMap<u32, u32>,
    /// Hubs whose partial row holds its self contribution.
    partial: HashSet<u32>,
    ring: RingAccountant,
    wave: Vec<(u32, u32, u32)>,
}

impl Oracle<'_> {
    fn combine(&mut self, v: u32) {
        let (macs, bytes) = match self.input {
            LayerInput::Sparse(x) => {
                let nnz = x.row_nnz(NodeId::new(v)) as u64;
                (nnz * self.out, (nnz * 8).min(x.num_cols() as u64 * 4))
            }
            LayerInput::Dense(m) => (m.cols() as u64 * self.out, m.cols() as u64 * 4),
        };
        self.s.combination_ops.macs += macs;
        self.s.traffic.feature_read_bytes += bytes;
        if self.norm.in_scale(NodeId::new(v)) != 1.0 {
            self.s.combination_ops.muls += self.out;
        }
    }

    fn touch(&mut self, hub: u32) {
        if self.cached.insert(hub) {
            self.combine(hub);
        } else {
            self.s.hub_path.xw_cache_hits += 1;
        }
    }

    fn init_partial(&mut self, hub: u32) {
        if self.partial.insert(hub) {
            self.s.aggregation.unpruned_vector_ops += 1;
            self.s.aggregation.executed_vector_adds += 1;
        }
    }

    /// PE `pe` sends an update for `hub`'s partial row to its bank.
    fn update_hub(&mut self, pe: u32, hub: u32) {
        let next = self.bank.len() as u32 % self.num_pes;
        let bank = *self.bank.entry(hub).or_insert(next);
        self.init_partial(hub);
        self.s.hub_path.hub_updates += 1;
        self.wave.push((pe, bank, hub));
    }

    fn write_row(&mut self, v: u32) {
        if self.norm.out_scale(NodeId::new(v)) != 1.0 {
            self.s.combination_ops.muls += self.out;
        }
        self.s.traffic.output_write_bytes += self.out * 4;
    }

    fn flush(&mut self) {
        self.ring.record_wave(&self.wave);
        self.wave.clear();
    }
}
