//! The I-GCN accelerator timing model.

use igcn_core::{ConsumerConfig, ExecStats, IslandizationConfig};
use igcn_gnn::GnnModel;
use igcn_graph::{CsrGraph, SparseFeatures};

use crate::compute::MacArray;
use crate::energy::EnergyModel;
use crate::hw::HardwareConfig;
use crate::memory::{AccessPattern, DramModel};
use crate::report::{GcnAccelerator, SimReport};

/// Timing/energy model of the full I-GCN accelerator.
///
/// Latency composition (§3.1.1): the Island Locator streams the graph and
/// emits islands *while* the Island Consumer processes them ("I-GCN
/// overlaps graph restructuring and graph processing"), and the stored
/// islands are replayed for deeper layers, so the locator overlaps the
/// whole inference:
///
/// ```text
/// total   = max(locator, Σ layer_i)
/// layer_i = max(compute_i, memory_i)            (decoupled access/execute)
/// locator = Σ_rounds max(hub_detect_r, bfs_r / scan_words)
/// ```
///
/// Within a round, Algorithm 1 runs hub detection, task generation and
/// TP-BFS as concurrent threads (hence the `max`); each TP-BFS engine
/// consumes [`HardwareConfig::bfs_scan_words`] adjacency words per cycle.
///
/// Statistics come from `igcn-core`'s exact accounting
/// (`igcn_core::exec::account_islandized`); islandization itself executes for real.
///
/// # Example
///
/// ```
/// use igcn_gnn::GnnModel;
/// use igcn_graph::generate::HubIslandConfig;
/// use igcn_graph::SparseFeatures;
/// use igcn_sim::{GcnAccelerator, HardwareConfig, IGcnAccelerator};
///
/// let g = HubIslandConfig::new(300, 12).generate(1);
/// let x = SparseFeatures::random(300, 32, 0.1, 2);
/// let model = GnnModel::gcn(32, 16, 4);
/// let acc = IGcnAccelerator::new(HardwareConfig::paper_default());
/// let report = acc.simulate(&g.graph, &x, &model);
/// assert!(report.latency_s > 0.0);
/// assert!(report.offchip_bytes > 0);
/// ```
#[derive(Debug, Clone)]
pub struct IGcnAccelerator {
    hw: HardwareConfig,
    energy: EnergyModel,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
}

impl IGcnAccelerator {
    /// Creates the model with default islandization parameters derived
    /// from the hardware configuration (P1/P2 lanes and PE count).
    pub fn new(hw: HardwareConfig) -> Self {
        let island_cfg =
            IslandizationConfig::default().with_engines(hw.tpbfs_engines).with_lanes(hw.hub_lanes);
        let consumer_cfg = ConsumerConfig::default().with_pes(hw.num_pes);
        IGcnAccelerator { hw, energy: EnergyModel::fpga_default(), island_cfg, consumer_cfg }
    }

    /// The hardware configuration.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// Produces a report from already-computed execution statistics
    /// (exposed so callers that ran the engine themselves avoid a
    /// second islandization pass).
    pub fn report_from_stats(&self, stats: &ExecStats) -> SimReport {
        let macs = MacArray::new(&self.hw);
        let dram = DramModel::new(&self.hw);

        // Intra-round thread concurrency + multi-word adjacency beats.
        let scan = self.hw.bfs_scan_words.max(1) as u64;
        let locator_cycles: u64 = stats
            .locator
            .rounds
            .iter()
            .map(|r| r.hub_detect_cycles.max(r.bfs_cycles.div_ceil(scan)))
            .sum();
        let mut layer_cycles: Vec<u64> = Vec::with_capacity(stats.layers.len());
        let mut compute_cycles_total = 0u64;
        let mut memory_cycles_total = 0u64;
        let mut total_ops = 0u64;
        let mut total_bytes = 0u64;
        // Weights and hub caches claim ~20% of SRAM; the rest can hold
        // resident graph data, which does not cost streaming time
        // (§4.6.1's "can be partially or even completely stored on-chip").
        let resident_budget = (self.hw.sram_bytes as f64 * 0.8) as u64;
        for layer in &stats.layers {
            let ops = layer.total_scalar_ops();
            let compute = macs.cycles_for(ops);
            // Island streams are sequential by construction — that is the
            // entire point of islandization.
            let streaming = crate::memory::effective_streaming_bytes(
                layer.traffic.total_bytes(),
                resident_budget,
            );
            let mem_s = dram.transfer_seconds(streaming, AccessPattern::Sequential);
            let memory = self.hw.seconds_to_cycles(mem_s);
            layer_cycles.push(compute.max(memory));
            compute_cycles_total += compute;
            memory_cycles_total += memory;
            total_ops += ops;
            total_bytes += layer.traffic.total_bytes();
        }
        // The locator overlaps the whole consumer run (islands stream to
        // PEs as found; stored islands replay for deeper layers).
        let consumer_total: u64 = layer_cycles.iter().sum();
        let cycles = locator_cycles.max(consumer_total);
        let latency_s = self.hw.cycles_to_seconds(cycles);

        // Each scalar op moves ~3 words through on-chip buffers.
        let sram_bytes = total_ops * 12;
        let energy_j = self.energy.energy_joules(total_ops, total_bytes, sram_bytes, latency_s);
        SimReport {
            name: "I-GCN".to_string(),
            latency_s,
            cycles,
            compute_cycles: compute_cycles_total,
            memory_cycles: memory_cycles_total,
            locator_cycles,
            offchip_bytes: total_bytes,
            total_ops,
            energy_j,
            graphs_per_kilojoule: self.energy.graphs_per_kilojoule(energy_j),
            // Island-schedule occupancy over the consumer's PE count:
            // how evenly island work units spread across the PEs.
            worker_utilisation: stats.occupancy.utilisation(),
        }
    }
}

impl GcnAccelerator for IGcnAccelerator {
    fn name(&self) -> String {
        "I-GCN".to_string()
    }

    fn simulate(&self, graph: &CsrGraph, features: &SparseFeatures, model: &GnnModel) -> SimReport {
        // The borrowed accounting path: islandize + account without
        // copying the graph into an owned engine.
        let stats = igcn_core::exec::account_islandized(
            graph,
            self.island_cfg,
            self.consumer_cfg,
            features,
            model,
        )
        .expect("graph must be loop-free and feature shapes must match");
        self.report_from_stats(&stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_graph::generate::HubIslandConfig;

    fn simulate(n: usize) -> SimReport {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).generate(3);
        let x = SparseFeatures::random(n, 64, 0.05, 4);
        let model = GnnModel::gcn(64, 16, 4);
        IGcnAccelerator::new(HardwareConfig::paper_default()).simulate(&g.graph, &x, &model)
    }

    #[test]
    fn report_fields_populated() {
        let r = simulate(400);
        assert_eq!(r.name, "I-GCN");
        assert!(r.latency_s > 0.0);
        assert!(r.cycles > 0);
        assert!(r.total_ops > 0);
        assert!(r.energy_j > 0.0);
        assert!(r.graphs_per_kilojoule > 0.0);
        // PE occupancy of the island schedule: a real distribution, not
        // the no-model placeholder, and still a valid fraction.
        assert!(r.worker_utilisation > 0.0 && r.worker_utilisation <= 1.0);
        assert!(r.worker_utilisation < 1.0, "island sizes vary; PEs cannot be perfectly even");
    }

    #[test]
    fn bigger_graphs_take_longer() {
        let small = simulate(200);
        let large = simulate(1600);
        assert!(large.latency_s > small.latency_s);
        assert!(large.offchip_bytes > small.offchip_bytes);
    }

    #[test]
    fn locator_overlaps_first_layer() {
        // Total cycles must never exceed locator + all layer cycles, and
        // must be at least the locator alone.
        let r = simulate(400);
        assert!(r.cycles >= r.locator_cycles);
    }

    #[test]
    fn microsecond_scale_for_small_graphs() {
        // The headline claim: µs-level inference for citation-scale
        // graphs.
        let r = simulate(400);
        assert!(
            r.latency_us() < 1000.0,
            "small graph latency should be well under a millisecond, got {} µs",
            r.latency_us()
        );
    }
}
