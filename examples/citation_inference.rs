//! Citation-network inference: the paper's Cora workload end to end.
//!
//! Generates the Cora stand-in at full published scale, islandizes it,
//! runs GCN-algo inference, prints the adjacency spy plot before/after
//! islandization, and simulates the accelerator latency/energy.
//!
//! ```sh
//! cargo run --release --example citation_inference
//! ```

use igcn::core::IGcnEngine;
use igcn::gnn::{GnnKind, GnnModel, ModelConfig, ModelWeights};
use igcn::graph::datasets::Dataset;
use igcn::graph::stats::DensityGrid;
use igcn::graph::NodeId;
use igcn::sim::{HardwareConfig, IGcnAccelerator};

fn main() {
    let dataset = Dataset::Cora;
    let data = dataset.generate(42);
    println!(
        "{dataset}: {} papers, {} citations, {}-dim bag-of-words features ({} nnz)",
        data.graph.num_nodes(),
        data.graph.num_undirected_edges(),
        data.features.num_cols(),
        data.features.nnz()
    );

    let engine =
        IGcnEngine::builder(data.graph.clone()).build().expect("citation stand-ins are loop-free");

    println!("\nadjacency before islandization:");
    println!("{}", DensityGrid::compute(&data.graph, None, 32).to_ascii());
    println!("after islandization (hub L-shapes + island diagonal):");
    let ordering = engine.partition().ordering_antidiagonal();
    println!("{}", DensityGrid::compute(&data.graph, Some(&ordering), 32).to_ascii());

    let model = GnnModel::for_dataset(dataset, GnnKind::Gcn, ModelConfig::Algo);
    let weights = ModelWeights::glorot(&model, 3);
    let (output, stats) =
        engine.run(&data.features, &model, &weights).expect("dataset shapes match");

    // Classify a few papers.
    for node in [0u32, 1, 2] {
        println!(
            "paper {node}: predicted class {}",
            IGcnEngine::predict_class(&output, NodeId::new(node))
        );
    }
    println!(
        "\npruned {:.1}% of aggregation ops; locator ran {} rounds in {} virtual cycles",
        stats.aggregation_pruning_rate() * 100.0,
        stats.locator.num_rounds(),
        stats.locator.virtual_cycles
    );

    // Accelerator-level projection.
    let report = IGcnAccelerator::new(HardwareConfig::paper_default()).report_from_stats(&stats);
    println!(
        "projected accelerator latency: {:.2} µs at 330 MHz / 4096 MACs; energy efficiency \
         {:.2e} graphs/kJ (the `paper` bin sets both beside Table 2)",
        report.latency_us(),
        report.graphs_per_kilojoule
    );

    let diff = engine.verify(&data.features, &model, &weights).expect("dataset shapes match");
    println!("verification vs software reference: max diff {diff:.2e}");
}
