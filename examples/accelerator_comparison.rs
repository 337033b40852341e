//! Accelerator shoot-out on one dataset, through the unified serving
//! trait.
//!
//! Binds I-GCN, AWB-GCN, HyGCN, SIGMA and the PyG/DGL software stacks
//! to the Citeseer stand-in as [`Accelerator`] backends — a miniature
//! of the paper's Figure 14(B) on the same API a serving deployment
//! uses.
//!
//! ```sh
//! cargo run --release --example accelerator_comparison
//! ```

use std::sync::Arc;

use igcn::baselines::{AwbGcn, HyGcn, Platform, PlatformKind, Sigma};
use igcn::core::accel::{Accelerator, InferenceRequest};
use igcn::gnn::{GnnKind, GnnModel, ModelConfig, ModelWeights};
use igcn::graph::datasets::Dataset;
use igcn::sim::{HardwareConfig, IGcnAccelerator, SimBackend};

fn main() {
    let dataset = Dataset::Citeseer;
    let data = dataset.generate(42);
    let model = GnnModel::for_dataset(dataset, GnnKind::Gcn, ModelConfig::Algo);
    let weights = ModelWeights::glorot(&model, 7);
    println!(
        "{dataset} / {}: {} nodes, {} edges\n",
        model.label(ModelConfig::Algo),
        data.graph.num_nodes(),
        data.graph.num_undirected_edges()
    );

    let hw = HardwareConfig::paper_default();
    let graph = Arc::new(data.graph);
    let mut platforms: Vec<Box<dyn Accelerator>> = vec![
        Box::new(SimBackend::new(IGcnAccelerator::new(hw), Arc::clone(&graph))),
        Box::new(SimBackend::new(AwbGcn::new(hw), Arc::clone(&graph))),
        Box::new(SimBackend::new(HyGcn::paper_config(), Arc::clone(&graph))),
        Box::new(SimBackend::new(Sigma::paper_config(), Arc::clone(&graph))),
        Box::new(SimBackend::new(Platform::new(PlatformKind::PygGpuV100), Arc::clone(&graph))),
        Box::new(SimBackend::new(Platform::new(PlatformKind::DglCpuE5_2683), Arc::clone(&graph))),
        Box::new(SimBackend::new(Platform::new(PlatformKind::PygCpuE5_2680), Arc::clone(&graph))),
    ];

    let request = InferenceRequest::new(data.features);
    let mut results: Vec<_> = platforms
        .iter_mut()
        .map(|p| {
            p.prepare(&model, &weights).expect("weights match the model");
            (p.name(), p.report(&request).expect("dataset shapes match"))
        })
        .collect();
    results.sort_by(|a, b| a.1.latency_s.partial_cmp(&b.1.latency_s).unwrap());

    let igcn_latency = results
        .iter()
        .find(|(name, _)| name == "I-GCN")
        .map(|(_, r)| r.latency_s)
        .expect("I-GCN present");

    println!(
        "{:<24} {:>14} {:>14} {:>16}",
        "platform", "latency (µs)", "vs I-GCN", "off-chip (MB)"
    );
    for (name, report) in &results {
        println!(
            "{:<24} {:>14.2} {:>13.1}x {:>16.2}",
            name,
            report.latency_us(),
            report.latency_s / igcn_latency,
            report.offchip_bytes as f64 / 1e6
        );
    }
    println!(
        "\nThe published Figure 14(B) averages, beside the model's: \
         cargo run --release -p igcn-bench --bin paper -- --part fig14b"
    );
}
