//! Island Consumer layer-execution bench on the vendored harness.
//!
//! Measures the reference PE's island-granular layer execution with and
//! without redundancy removal and across pre-aggregation window widths
//! `k` (the ablations behind Figure 10 and the §3.3.1 design choice),
//! then the walk over the physical layout: `(Compute, Account)` in one
//! pass against the `Account` sink alone.
//!
//! Formerly a criterion bench (gated out of hermetic builds); now a
//! plain `harness = false` main over `igcn_bench::harness`.
//! Run: `cargo bench -p igcn-bench --bench consumer`

use igcn_bench::table::fmt_sig;
use igcn_bench::{BenchHarness, Table};
use igcn_core::consumer::hotpath::{self, LayerScratch};
use igcn_core::consumer::{IslandConsumer, LayerInput};
use igcn_core::{islandize, ConsumerConfig, IslandLayout, IslandizationConfig};
use igcn_gnn::Activation;
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_linalg::{DenseMatrix, GcnNormalization};

fn main() {
    let harness = BenchHarness::new(2, 10);
    let g = HubIslandConfig::new(4_000, 160).island_density(0.5).generate(6);
    let partition = islandize(&g.graph, &IslandizationConfig::default());
    let x = SparseFeatures::random(4_000, 64, 0.05, 7);
    let w = DenseMatrix::from_vec(64, 16, vec![0.1f32; 64 * 16]);
    let norm = GcnNormalization::symmetric(&g.graph);

    let mut table = Table::new(vec!["case", "median (ms)", "p95 (ms)"]);
    let mut record = |label: String, stats: igcn_bench::BenchStats| {
        table.row(vec![label, fmt_sig(stats.median_s() * 1e3), fmt_sig(stats.p95_s() * 1e3)]);
    };

    for redundancy in [true, false] {
        let cfg = ConsumerConfig::default().with_redundancy_removal(redundancy);
        let consumer = IslandConsumer::new(&g.graph, &partition, cfg);
        let label = if redundancy { "layer/with_reuse" } else { "layer/no_reuse" };
        let stats = harness
            .run(|| consumer.execute_layer(LayerInput::Sparse(&x), &w, &norm, Activation::Relu));
        record(label.to_string(), stats);
    }
    for k in [2usize, 4, 8] {
        let cfg = ConsumerConfig::default().with_k(k);
        let consumer = IslandConsumer::new(&g.graph, &partition, cfg);
        let stats = harness
            .run(|| consumer.execute_layer(LayerInput::Sparse(&x), &w, &norm, Activation::Relu));
        record(format!("layer/k={k}"), stats);
    }
    {
        // The walk over the physical layout.
        let cfg = ConsumerConfig::default();
        let layout = IslandLayout::new(&g.graph, &partition, cfg.num_pes);
        let hot_norm = GcnNormalization::symmetric(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let mut scratch = LayerScratch::new();
        let mut out = vec![0.0f32; g.graph.num_nodes() * 16];
        let stats = harness.run(|| {
            hotpath::execute_layer(
                &layout,
                cfg,
                LayerInput::Sparse(&gathered),
                &w,
                &hot_norm,
                Activation::Relu,
                &mut scratch,
                &mut out,
            )
        });
        record("layer/hotpath".to_string(), stats);
        let stats = harness.run(|| {
            hotpath::account_layer(&layout, cfg, LayerInput::Sparse(&gathered), 16, &hot_norm)
        });
        record("account_only".to_string(), stats);
    }

    println!("\n# Island Consumer layer execution (4000 nodes, 64→16)\n");
    println!("{}", table.to_markdown());
}
