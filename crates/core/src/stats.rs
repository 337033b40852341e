//! Statistics produced by islandization and island execution.

use serde::{Deserialize, Serialize};

use igcn_linalg::OpCounter;

/// Per-round statistics of the Island Locator (one entry per iteration of
/// Algorithm 1's while loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: u32,
    /// Hub threshold `TH_tmp` used this round.
    pub threshold: u32,
    /// Hubs detected this round.
    pub hubs_found: usize,
    /// Islands confirmed this round.
    pub islands_found: usize,
    /// Island nodes classified this round.
    pub island_nodes_classified: usize,
    /// Virtual cycles spent in parallel hub detection
    /// (`ceil(scanned / P1)`).
    pub hub_detect_cycles: u64,
    /// Virtual cycles spent in lock-step TP-BFS.
    pub bfs_cycles: u64,
}

/// Aggregate statistics of one full islandization run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LocatorStats {
    /// Per-round breakdown.
    pub rounds: Vec<RoundStats>,
    /// Total virtual lock-step cycles (hub detection + BFS, rounds are
    /// serialized by the Algorithm 1 line-9 barrier).
    pub virtual_cycles: u64,
    /// Adjacency-list words read from memory (task generation + BFS
    /// neighbor expansion, including re-reads caused by dropped tasks).
    pub adjacency_words_read: u64,
    /// BFS tasks generated by Algorithm 3.
    pub tasks_generated: u64,
    /// Tasks dropped because the seed or a reached node was already
    /// globally visited (break condition A, Figure 5).
    pub tasks_dropped_conflict: u64,
    /// Tasks dropped because the island grew past `c_max` (break
    /// condition B).
    pub tasks_dropped_overflow: u64,
    /// Tasks dropped because the seed was itself a hub — these yield
    /// inter-hub edges.
    pub tasks_dropped_hub_seed: u64,
    /// Inter-hub edges recorded (deduplicated).
    pub inter_hub_edges: u64,
    /// Islands confirmed in total.
    pub islands_found: u64,
}

impl LocatorStats {
    /// Number of rounds the locator ran.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Fraction of generated tasks that were dropped (any reason).
    pub fn drop_fraction(&self) -> f64 {
        if self.tasks_generated == 0 {
            return 0.0;
        }
        (self.tasks_dropped_conflict + self.tasks_dropped_overflow + self.tasks_dropped_hub_seed)
            as f64
            / self.tasks_generated as f64
    }
}

/// Aggregation-phase operation accounting for one layer, in *vector-op*
/// units (each unit is a vector add/sub of the layer's feature width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AggregationStats {
    /// Vector accumulations a plain (no redundancy removal) execution
    /// would perform: one per set bitmap bit, per inter-hub direction and
    /// per self contribution.
    pub unpruned_vector_ops: u64,
    /// Vector additions actually executed by the window scan.
    pub executed_vector_adds: u64,
    /// Vector subtractions actually executed (pre-aggregate corrections).
    pub executed_vector_subs: u64,
    /// Vector additions spent building pre-aggregation group sums.
    pub preagg_vector_adds: u64,
    /// Scan windows resolved by a single pre-aggregate reuse.
    pub windows_reused: u64,
    /// Scan windows that fell back to direct accumulation.
    pub windows_direct: u64,
    /// All-zero windows skipped by the parallel scanner.
    pub windows_skipped: u64,
}

impl AggregationStats {
    /// Vector ops actually executed, including pre-aggregation cost.
    pub fn executed_vector_ops(&self) -> u64 {
        self.executed_vector_adds + self.executed_vector_subs + self.preagg_vector_adds
    }

    /// The Figure 10 aggregation pruning rate:
    /// `1 − executed / unpruned`.
    pub fn pruning_rate(&self) -> f64 {
        if self.unpruned_vector_ops == 0 {
            return 0.0;
        }
        1.0 - self.executed_vector_ops() as f64 / self.unpruned_vector_ops as f64
    }

    /// Merges another layer's stats into this one.
    pub fn merge(&mut self, other: &AggregationStats) {
        self.unpruned_vector_ops += other.unpruned_vector_ops;
        self.executed_vector_adds += other.executed_vector_adds;
        self.executed_vector_subs += other.executed_vector_subs;
        self.preagg_vector_adds += other.preagg_vector_adds;
        self.windows_reused += other.windows_reused;
        self.windows_direct += other.windows_direct;
        self.windows_skipped += other.windows_skipped;
    }
}

/// Off-chip traffic accounting (bytes), produced by the Island Consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Adjacency bytes read (BFS expansion, task generation, re-reads).
    pub adjacency_bytes: u64,
    /// Input-feature bytes read (island nodes once; hubs once per layer).
    pub feature_read_bytes: u64,
    /// Output-feature bytes written.
    pub output_write_bytes: u64,
    /// Weight bytes read (once; weights stay on-chip afterwards).
    pub weight_bytes: u64,
}

impl TrafficStats {
    /// Total bytes moved off-chip.
    pub fn total_bytes(&self) -> u64 {
        self.adjacency_bytes + self.feature_read_bytes + self.output_write_bytes + self.weight_bytes
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.adjacency_bytes += other.adjacency_bytes;
        self.feature_read_bytes += other.feature_read_bytes;
        self.output_write_bytes += other.output_write_bytes;
        self.weight_bytes += other.weight_bytes;
    }
}

/// Statistics of the hub partial-result path (DHUB-PRC + ring network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HubPathStats {
    /// Partial-result update messages emitted by PEs.
    pub hub_updates: u64,
    /// Updates that were satisfied in the PE's local bank (no ring
    /// traversal).
    pub local_bank_hits: u64,
    /// Total ring hops traversed by forwarded updates.
    pub ring_hops: u64,
    /// Updates merged by in-network reduction at ring entries.
    pub in_network_reductions: u64,
    /// Distinct hub rows allocated across DHUB-PRC banks.
    pub hub_rows_allocated: u64,
    /// Hub combination results served from the HUB Matrix XW Cache instead
    /// of being recomputed.
    pub xw_cache_hits: u64,
}

/// Per-layer execution statistics of the islandized GCN pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LayerExecStats {
    /// Feature width this layer aggregates (vector-op length).
    pub feature_width: usize,
    /// Combination arithmetic (MACs + normalisation scaling).
    pub combination_ops: OpCounter,
    /// Aggregation vector-op accounting.
    pub aggregation: AggregationStats,
    /// Off-chip traffic attributed to this layer.
    pub traffic: TrafficStats,
    /// Hub partial-result path counters.
    pub hub_path: HubPathStats,
    /// Island tasks executed.
    pub island_tasks: u64,
    /// Inter-hub tasks executed.
    pub inter_hub_tasks: u64,
}

impl LayerExecStats {
    /// Aggregation scalar ops actually executed
    /// (`vector ops × feature width`).
    pub fn aggregation_scalar_ops(&self) -> u64 {
        self.aggregation.executed_vector_ops() * self.feature_width as u64
    }

    /// Aggregation scalar ops an unpruned execution would perform.
    pub fn aggregation_scalar_ops_unpruned(&self) -> u64 {
        self.aggregation.unpruned_vector_ops * self.feature_width as u64
    }

    /// Total scalar ops executed this layer.
    pub fn total_scalar_ops(&self) -> u64 {
        self.combination_ops.total() + self.aggregation_scalar_ops()
    }
}

/// Modelled parallel occupancy of one inference: how island work units
/// distribute over the configured worker threads.
///
/// Produced deterministically from the [`IslandSchedule`]'s per-island
/// work estimates (islands are assigned to workers round-robin within
/// each issue wave), *not* from observed thread timings — so the run and
/// accounting paths report identical occupancy at any thread count.
///
/// [`IslandSchedule`]: crate::schedule::IslandSchedule
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OccupancyStats {
    /// Modelled busy work-unit cycles per worker (`workers` entries; one
    /// work unit ≈ one bitmap adjacency entry or one member combination).
    pub worker_busy_cycles: Vec<u64>,
}

impl OccupancyStats {
    /// Number of workers the schedule was mapped onto.
    pub fn workers(&self) -> usize {
        self.worker_busy_cycles.len()
    }

    /// Total busy work units across all workers.
    pub fn total_busy(&self) -> u64 {
        self.worker_busy_cycles.iter().sum()
    }

    /// The modelled makespan: the busiest worker's cycles.
    pub fn makespan(&self) -> u64 {
        self.worker_busy_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Worker utilisation in `[0, 1]`: mean busy cycles over the busiest
    /// worker's cycles (1.0 for a perfectly balanced schedule or a
    /// single worker; 1.0 when there is no work at all).
    pub fn utilisation(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == 0 || self.worker_busy_cycles.is_empty() {
            return 1.0;
        }
        self.total_busy() as f64 / (makespan as f64 * self.worker_busy_cycles.len() as f64)
    }
}

/// End-to-end statistics of one islandized inference.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Island Locator statistics (islandization runs once per graph and is
    /// reused by every layer).
    pub locator: LocatorStats,
    /// Per-layer consumer statistics.
    pub layers: Vec<LayerExecStats>,
    /// Modelled worker occupancy of the island schedule under the
    /// engine's execution configuration.
    pub occupancy: OccupancyStats,
}

impl ExecStats {
    /// Overall aggregation pruning rate across layers (Figure 10, left
    /// group).
    pub fn aggregation_pruning_rate(&self) -> f64 {
        let unpruned: u64 = self.layers.iter().map(|l| l.aggregation_scalar_ops_unpruned()).sum();
        let executed: u64 = self.layers.iter().map(|l| l.aggregation_scalar_ops()).sum();
        if unpruned == 0 {
            0.0
        } else {
            1.0 - executed as f64 / unpruned as f64
        }
    }

    /// Overall operation pruning rate (Figure 10, right group):
    /// pruned aggregation ops over total unpruned model ops. Negative when
    /// eager pre-aggregation costs more than it saves (possible on graphs
    /// with no shared-neighbor structure).
    pub fn overall_pruning_rate(&self) -> f64 {
        let unpruned_agg: u64 =
            self.layers.iter().map(|l| l.aggregation_scalar_ops_unpruned()).sum();
        let executed_agg: u64 = self.layers.iter().map(|l| l.aggregation_scalar_ops()).sum();
        let combination: u64 = self.layers.iter().map(|l| l.combination_ops.total()).sum();
        let total_unpruned = combination + unpruned_agg;
        if total_unpruned == 0 {
            0.0
        } else {
            (unpruned_agg as f64 - executed_agg as f64) / total_unpruned as f64
        }
    }

    /// Total scalar ops executed.
    pub fn total_scalar_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.total_scalar_ops()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_rate_formula() {
        let a = AggregationStats {
            unpruned_vector_ops: 16,
            executed_vector_adds: 7,
            executed_vector_subs: 1,
            preagg_vector_adds: 2,
            windows_reused: 3,
            windows_direct: 4,
            windows_skipped: 10,
        };
        assert_eq!(a.executed_vector_ops(), 10);
        assert!((a.pruning_rate() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn pruning_rate_zero_when_empty() {
        assert_eq!(AggregationStats::default().pruning_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AggregationStats { unpruned_vector_ops: 4, ..Default::default() };
        let b = AggregationStats {
            unpruned_vector_ops: 6,
            executed_vector_adds: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.unpruned_vector_ops, 10);
        assert_eq!(a.executed_vector_adds, 5);
    }

    #[test]
    fn exec_stats_overall_rate() {
        let mut stats = ExecStats::default();
        stats.layers.push(LayerExecStats {
            feature_width: 2,
            combination_ops: OpCounter { macs: 60, ..Default::default() },
            aggregation: AggregationStats {
                unpruned_vector_ops: 10,
                executed_vector_adds: 5,
                ..Default::default()
            },
            ..Default::default()
        });
        // Unpruned total = 60 + 20; pruned = 20 - 10 = 10 → 12.5%.
        assert!((stats.overall_pruning_rate() - 10.0 / 80.0).abs() < 1e-12);
        assert!((stats.aggregation_pruning_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_total() {
        let t = TrafficStats {
            adjacency_bytes: 1,
            feature_read_bytes: 2,
            output_write_bytes: 3,
            weight_bytes: 4,
        };
        assert_eq!(t.total_bytes(), 10);
    }

    #[test]
    fn locator_drop_fraction() {
        let mut s = LocatorStats::default();
        assert_eq!(s.drop_fraction(), 0.0);
        s.tasks_generated = 10;
        s.tasks_dropped_conflict = 2;
        s.tasks_dropped_overflow = 1;
        assert!((s.drop_fraction() - 0.3).abs() < 1e-12);
    }
}
