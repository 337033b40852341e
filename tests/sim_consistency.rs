//! Integration: the accelerator and baseline models produce mutually
//! consistent shapes, and the benchmark's modelled columns stay where
//! they were recorded. The paper's published values, and how far the
//! models land from each, are the cells of `igcn_bench::paper`, checked
//! by `crates/bench/tests/paper_fidelity.rs`.

use igcn::baselines::{AwbGcn, HyGcn, Platform, PlatformKind, Sigma};
use igcn::gnn::{GnnKind, GnnModel, ModelConfig};
use igcn::graph::datasets::Dataset;
use igcn::sim::{GcnAccelerator, HardwareConfig, IGcnAccelerator};

fn cora() -> (igcn::graph::CsrGraph, igcn::graph::SparseFeatures, GnnModel) {
    let d = Dataset::Cora.generate_scaled(0.5, 42);
    let m = GnnModel::for_dataset(Dataset::Cora, GnnKind::Gcn, ModelConfig::Algo);
    (d.graph, d.features, m)
}

#[test]
fn igcn_beats_awb_beats_software() {
    let (g, x, m) = cora();
    let hw = HardwareConfig::paper_default();
    let ours = IGcnAccelerator::new(hw).simulate(&g, &x, &m);
    let awb = AwbGcn::new(hw).simulate(&g, &x, &m);
    let cpu = Platform::new(PlatformKind::PygCpuE5_2680).simulate(&g, &x, &m);
    let gpu = Platform::new(PlatformKind::PygGpuV100).simulate(&g, &x, &m);

    assert!(
        ours.latency_s < awb.latency_s,
        "I-GCN ({}) must beat AWB-GCN ({})",
        ours.latency_us(),
        awb.latency_us()
    );
    assert!(awb.latency_s < gpu.latency_s, "accelerators must beat GPUs");
    assert!(gpu.latency_s < cpu.latency_s, "GPUs must beat CPUs");
    // Order-of-magnitude floors on the software speedups; Fig 14(B)'s
    // published geomeans are cells of `igcn_bench::paper`.
    let cpu_speedup = ours.speedup_over(&cpu);
    let gpu_speedup = ours.speedup_over(&gpu);
    assert!(cpu_speedup > 500.0, "CPU speedup {cpu_speedup} below band");
    assert!(gpu_speedup > 20.0, "GPU speedup {gpu_speedup} below band");
}

#[test]
fn igcn_traffic_lowest() {
    let (g, x, m) = cora();
    let hw = HardwareConfig::paper_default();
    let ours = IGcnAccelerator::new(hw).simulate(&g, &x, &m);
    let awb = AwbGcn::new(hw).simulate(&g, &x, &m);
    let hygcn = HyGcn::paper_config().simulate(&g, &x, &m);
    assert!(
        ours.offchip_bytes < awb.offchip_bytes,
        "Figure 14(A): I-GCN traffic ({}) must undercut AWB-GCN ({})",
        ours.offchip_bytes,
        awb.offchip_bytes
    );
    assert!(ours.offchip_bytes < hygcn.offchip_bytes);
}

#[test]
fn microsecond_band_on_citation_graphs() {
    // Citation graphs run in tens of µs at most; Table 2's published
    // latencies are cells of `igcn_bench::paper`.
    let (g, x, m) = cora();
    let ours = IGcnAccelerator::new(HardwareConfig::paper_default()).simulate(&g, &x, &m);
    assert!(
        ours.latency_us() < 100.0,
        "Cora-scale inference should be tens of µs at most, got {}",
        ours.latency_us()
    );
}

#[test]
fn sigma_slower_than_gcn_accelerators() {
    let (g, x, m) = cora();
    let hw = HardwareConfig::paper_default();
    let ours = IGcnAccelerator::new(hw).simulate(&g, &x, &m);
    let sigma = Sigma::paper_config().simulate(&g, &x, &m);
    let ratio = ours.speedup_over(&sigma);
    assert!(ratio > 2.0, "SIGMA should trail I-GCN clearly, got {ratio}x");
}

#[test]
fn energy_efficiency_tracks_latency() {
    let (g, x, m) = cora();
    let hw = HardwareConfig::paper_default();
    let ours = IGcnAccelerator::new(hw).simulate(&g, &x, &m);
    let awb = AwbGcn::new(hw).simulate(&g, &x, &m);
    assert!(
        ours.graphs_per_kilojoule > awb.graphs_per_kilojoule,
        "Table 2: I-GCN EE must exceed AWB-GCN EE"
    );
}

#[test]
fn paper_columns_are_pinned_at_seed_42() {
    // Golden values of the benchmark's three modelled columns
    // (`agg_ops_executed_frac`, `offchip_mb_per_infer`, `sim_latency_us`)
    // on the full-scale citation stand-ins, recorded at PR 17 — the
    // traffic and timing models are deterministic functions of the
    // seed, so any drift is a changed model and must be deliberate.
    use std::sync::Arc;

    use igcn::core::accel::{Accelerator, InferenceRequest};
    use igcn::core::IGcnEngine;
    use igcn::gnn::ModelWeights;
    use igcn::sim::SimBackend;

    for (dataset, executed_frac, offchip_bytes, sim_cycles, sim_latency_us) in [
        (Dataset::Cora, 0.74177, 992_172, 393, 1.19091),
        (Dataset::Citeseer, 0.81979, 1_626_740, 625, 1.89394),
    ] {
        let data = dataset.generate(42);
        let graph = Arc::new(data.graph);
        let model = GnnModel::for_dataset(dataset, GnnKind::Gcn, ModelConfig::Algo);
        let weights = ModelWeights::glorot(&model, 0);
        let request = InferenceRequest::new(data.features);

        let mut engine = IGcnEngine::builder(Arc::clone(&graph)).build().expect("loop-free");
        engine.prepare(&model, &weights).expect("weights match");
        let report = engine.report(&request).expect("prepared engine prices");
        let frac = 1.0 - report.aggregation_pruning_rate;
        assert!((frac - executed_frac).abs() < 5e-6, "{dataset}: executed fraction {frac}");
        assert_eq!(report.offchip_bytes, offchip_bytes, "{dataset}: modelled off-chip bytes");

        let mut sim = SimBackend::new(IGcnAccelerator::new(HardwareConfig::paper_default()), graph);
        sim.prepare(&model, &weights).expect("weights match");
        let simulated = sim.report(&request).expect("prepared simulator prices");
        assert_eq!(simulated.offchip_bytes, offchip_bytes, "{dataset}: simulator traffic");
        assert_eq!(simulated.cycles, sim_cycles, "{dataset}: simulated cycles");
        let latency = simulated.latency_us();
        assert!((latency - sim_latency_us).abs() < 5e-6, "{dataset}: latency {latency} us");
    }
}
