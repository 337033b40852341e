//! AWB-GCN (Geng et al., MICRO 2020) behavioural model.
//!
//! AWB-GCN executes both multiplications of Equation 1 as
//! PUSH-column-wise SpMM with three levels of runtime workload
//! autotuning. It exploits sparsity in both `X` and `A`, so its operation
//! count equals I-GCN's *unpruned* workload. Its two structural handicaps
//! against I-GCN are:
//!
//! 1. **result-matrix locality** — partial results of `Ã·(XW)` are
//!    scattered; when the `n × h` partial buffer exceeds on-chip SRAM the
//!    adjacency must be re-streamed once per result tile (§1 of the
//!    I-GCN paper: "does not address the data locality problem ... which
//!    can be the most critical problem for large graphs");
//! 2. **utilization transients** — autotuning converges over a warm-up
//!    period and the pipeline drains between the two chained SpMMs, which
//!    bounds sustained utilization below I-GCN's fine-grained island
//!    pipeline: ≈ 0.45 on ~1 M-op graphs, approaching 0.8 on large ones.
//!    The Table 2 AWB-GCN cells of `igcn_bench::paper` record how far the
//!    resulting latencies land from the published ones.

use igcn_gnn::{GnnModel, ModelWorkload};
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_sim::memory::{effective_streaming_bytes, AccessPattern};
use igcn_sim::{DramModel, EnergyModel, GcnAccelerator, HardwareConfig, MacArray, SimReport};

/// The AWB-GCN model.
#[derive(Debug, Clone)]
pub struct AwbGcn {
    hw: HardwareConfig,
    energy: EnergyModel,
}

impl AwbGcn {
    /// Creates the model. The paper's comparison config is the same FPGA
    /// budget as I-GCN: 4096 fp32 MACs at 330 MHz.
    pub fn new(hw: HardwareConfig) -> Self {
        AwbGcn { hw, energy: EnergyModel::fpga_default() }
    }

    /// Sustained MAC utilization: autotuning needs work to balance; tiny
    /// graphs never leave the transient.
    fn utilization(&self, total_ops: u64) -> f64 {
        // Ramp from 0.45 on ~1M-op graphs to 0.8 asymptotically.
        let m = total_ops as f64 / 1.0e6;
        0.45 + 0.35 * (m / (m + 20.0))
    }

    /// Off-chip traffic of one layer, split into (sequential, random).
    fn layer_traffic(
        &self,
        graph: &CsrGraph,
        features: &SparseFeatures,
        layer_idx: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> (u64, u64) {
        let n = graph.num_nodes() as u64;
        let nnz_a = graph.num_directed_edges() as u64 + n; // + self loops
        let f32b = 4u64;
        let idx = 4u64;

        // Partial-result buffer for Ã·(XW): n × out_dim words. When it
        // does not fit in the SRAM share, the adjacency streams once per
        // result tile.
        let xo_bytes = n * out_dim as u64 * f32b;
        let buffer = (self.hw.sram_bytes as f64 * 0.8) as u64;
        let passes = xo_bytes.div_ceil(buffer.max(1)).max(1);

        let adjacency = nnz_a * (idx + f32b) * passes;
        let input = if layer_idx == 0 {
            features.nnz() as u64 * (f32b + idx)
        } else {
            n * in_dim as u64 * f32b
        };
        // The chained SpMM buffers XW on-chip when possible; otherwise it
        // round-trips DRAM.
        let xw_bytes = n * out_dim as u64 * f32b;
        let xw_roundtrip = if xw_bytes <= buffer { 0 } else { 2 * xw_bytes };
        let output = n * out_dim as u64 * f32b;
        let weights = (in_dim * out_dim) as u64 * f32b;

        let sequential = adjacency + input + weights + xw_roundtrip;
        // Scattered partial-result updates that spill.
        let random = if passes > 1 { output } else { 0 };
        (sequential + if passes > 1 { 0 } else { output }, random)
    }
}

impl GcnAccelerator for AwbGcn {
    fn name(&self) -> String {
        "AWB-GCN".to_string()
    }

    fn simulate(&self, graph: &CsrGraph, features: &SparseFeatures, model: &GnnModel) -> SimReport {
        let workload = ModelWorkload::compute(graph, features, model);
        let dram = DramModel::new(&self.hw);
        let total_ops = workload.total_ops();
        let macs = MacArray::with_params(self.hw.num_macs, self.utilization(total_ops));
        let resident = (self.hw.sram_bytes as f64 * 0.8) as u64;

        let mut cycles = 0u64;
        let mut compute_cycles = 0u64;
        let mut memory_cycles = 0u64;
        let mut total_bytes = 0u64;
        for (i, layer) in model.layers().iter().enumerate() {
            let ops = workload.layers()[i].total_ops();
            let compute = macs.cycles_for(ops);
            let (seq, rnd) = self.layer_traffic(graph, features, i, layer.in_dim, layer.out_dim);
            total_bytes += seq + rnd;
            let seq_stream = effective_streaming_bytes(seq, resident);
            let mem_s = dram.transfer_seconds(seq_stream, AccessPattern::Sequential)
                + dram.transfer_seconds(rnd, AccessPattern::Random);
            let memory = self.hw.seconds_to_cycles(mem_s);
            // Inter-SpMM pipeline drain between combination and
            // aggregation plus autotuning warm-up.
            let overhead = 250;
            cycles += compute.max(memory) + overhead;
            compute_cycles += compute;
            memory_cycles += memory;
        }
        let latency_s = self.hw.cycles_to_seconds(cycles);
        let sram_bytes = total_ops * 12;
        let energy_j = self.energy.energy_joules(total_ops, total_bytes, sram_bytes, latency_s);
        SimReport {
            name: self.name(),
            latency_s,
            cycles,
            compute_cycles,
            memory_cycles,
            locator_cycles: 0,
            offchip_bytes: total_bytes,
            total_ops,
            energy_j,
            graphs_per_kilojoule: self.energy.graphs_per_kilojoule(energy_j),
            // AWB-GCN already models PE-array utilisation explicitly.
            worker_utilisation: self.utilization(total_ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_gnn::{GnnKind, ModelConfig};
    use igcn_graph::datasets::Dataset;

    fn cora_small() -> (CsrGraph, SparseFeatures, GnnModel) {
        let d = Dataset::Cora.generate_scaled(0.25, 1);
        let model = GnnModel::for_dataset(Dataset::Cora, GnnKind::Gcn, ModelConfig::Algo);
        (d.graph, d.features, model)
    }

    #[test]
    fn produces_positive_latency() {
        let (g, x, m) = cora_small();
        let r = AwbGcn::new(HardwareConfig::paper_default()).simulate(&g, &x, &m);
        assert!(r.latency_s > 0.0);
        assert!(r.total_ops > 0);
        assert_eq!(r.locator_cycles, 0);
    }

    #[test]
    fn utilization_ramps_with_size() {
        let a = AwbGcn::new(HardwareConfig::paper_default());
        assert!(a.utilization(1_000_000) < a.utilization(1_000_000_000));
        assert!(a.utilization(u64::MAX / 2) < 0.81);
    }

    #[test]
    fn small_graph_is_microsecond_scale() {
        let (g, x, m) = cora_small();
        let r = AwbGcn::new(HardwareConfig::paper_default()).simulate(&g, &x, &m);
        assert!(r.latency_us() < 100.0, "got {} µs", r.latency_us());
    }

    #[test]
    fn result_spill_adds_adjacency_passes() {
        // Force a tiny SRAM so the partial-result buffer spills.
        let mut hw = HardwareConfig::paper_default();
        hw.sram_bytes = 1 << 12;
        let (g, x, m) = cora_small();
        let spilled = AwbGcn::new(hw).simulate(&g, &x, &m);
        let roomy = AwbGcn::new(HardwareConfig::paper_default()).simulate(&g, &x, &m);
        assert!(spilled.offchip_bytes > roomy.offchip_bytes);
    }
}
