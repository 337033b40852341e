//! Integration: incremental islandization on evolving graphs keeps
//! inference exact and invariants intact across long update sequences,
//! both through the free functions and through the serving engine's
//! `apply_update`.

use igcn::core::accel::{Accelerator, GraphUpdate, InferenceRequest};
use igcn::core::incremental::{apply_edges, incremental_islandize};
use igcn::core::{IGcnEngine, IslandLocator, IslandizationConfig};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::{CsrGraph, NodeId, SparseFeatures};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_new_edges(graph: &CsrGraph, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.num_nodes() as u32;
    let mut edges = Vec::new();
    let mut guard = 0;
    while edges.len() < count && guard < count * 100 {
        guard += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !graph.has_edge(NodeId::new(a), NodeId::new(b)) {
            edges.push((a, b));
        }
    }
    edges
}

#[test]
fn long_update_sequence_stays_exact() {
    let mut engine =
        IGcnEngine::builder(HubIslandConfig::new(600, 24).noise_fraction(0.01).generate(3).graph)
            .build()
            .unwrap();
    let model = GnnModel::gcn(8, 4, 4);
    let weights = ModelWeights::glorot(&model, 1);
    engine.prepare(&model, &weights).unwrap();
    for step in 0..8u64 {
        let added = random_new_edges(engine.graph(), 8, 500 + step);
        engine.apply_update(GraphUpdate::add_edges(added)).unwrap();
        engine.partition().check_invariants(engine.graph()).unwrap();
        // The incrementally maintained structure must still be lossless.
        let x = SparseFeatures::random(engine.graph().num_nodes(), 8, 0.4, 900 + step);
        let diff = engine.verify(&x, &model, &weights).unwrap();
        assert!(diff < 1e-3, "step {step}: diverged by {diff}");
        // And the serving path keeps answering on the updated graph.
        let response = engine.infer(&InferenceRequest::new(x).with_id(step)).unwrap();
        assert_eq!(response.output.rows(), engine.graph().num_nodes());
    }
}

#[test]
fn incremental_touches_less_than_full_rerun() {
    let cfg = IslandizationConfig::default();
    let graph = HubIslandConfig::new(2_000, 80).noise_fraction(0.005).generate(5).graph;
    let (partition, full_stats) = IslandLocator::new(&graph, &cfg).run().unwrap();
    let added = random_new_edges(&graph, 6, 77);
    let updated = apply_edges(&graph, graph.num_nodes(), &added).unwrap();
    let result = incremental_islandize(&updated, &partition, &added, &cfg).unwrap();
    assert!(
        result.stats.adjacency_words_read < full_stats.adjacency_words_read,
        "incremental pass must stream less adjacency than the original full pass \
         ({} vs {})",
        result.stats.adjacency_words_read,
        full_stats.adjacency_words_read
    );
    assert!(result.reclassified_nodes < graph.num_nodes() / 4);
}

#[test]
fn engine_update_touches_less_than_full_rerun() {
    let cfg = IslandizationConfig::default();
    let mut engine = IGcnEngine::builder(
        HubIslandConfig::new(2_000, 80).noise_fraction(0.005).generate(6).graph,
    )
    .island_config(cfg)
    .build()
    .unwrap();
    let full_words = engine.locator_stats().adjacency_words_read;
    let added = random_new_edges(engine.graph(), 6, 78);
    let report = engine.apply_update(GraphUpdate::add_edges(added)).unwrap();
    assert!(
        report.locator_stats.adjacency_words_read < full_words,
        "apply_update must stream less adjacency than the build-time pass ({} vs {})",
        report.locator_stats.adjacency_words_read,
        full_words
    );
    assert!(report.reclassified_nodes < engine.graph().num_nodes() / 4);
}

#[test]
fn growing_network_with_new_nodes() {
    let mut engine =
        IGcnEngine::builder(HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(9).graph)
            .build()
            .unwrap();
    for step in 0..4u64 {
        // Three new nodes arrive, wired to an existing hub and each other.
        let n = engine.graph().num_nodes() as u32;
        let hub = engine.partition().hubs()[step as usize % engine.partition().num_hubs()];
        let update = GraphUpdate::add_edges(vec![(n, hub), (n + 1, n), (n + 2, n), (n + 1, n + 2)])
            .with_num_nodes(n as usize + 3);
        let report = engine.apply_update(update).unwrap();
        engine.partition().check_invariants(engine.graph()).unwrap();
        assert_eq!(report.num_nodes, n as usize + 3);
        assert_eq!(engine.partition().num_nodes(), n as usize + 3);
    }
}

#[test]
fn incremental_equals_invariants_of_full_rerun() {
    // Deterministic sweep standing in for the original property test:
    // varied sizes, hub counts, batch sizes and seeds.
    let cases = [
        (50usize, 2usize, 1usize, 13u64),
        (80, 4, 3, 101),
        (120, 6, 5, 227),
        (160, 8, 7, 331),
        (200, 10, 9, 401),
        (240, 11, 11, 17),
        (300, 12, 2, 499),
        (90, 3, 12, 77),
    ];
    for (n, hubs, batch, seed) in cases {
        let cfg = IslandizationConfig::default();
        let graph =
            HubIslandConfig::new(n, hubs.min(n - 1)).noise_fraction(0.02).generate(seed).graph;
        let (partition, _) = IslandLocator::new(&graph, &cfg).run().unwrap();
        let added = random_new_edges(&graph, batch, seed ^ 0xABCD);
        let updated = apply_edges(&graph, graph.num_nodes(), &added).unwrap();
        let incr = incremental_islandize(&updated, &partition, &added, &cfg).unwrap();
        incr.partition.check_invariants(&updated).unwrap();
        // A full re-run also satisfies the invariants; both are valid
        // partitions of the same graph (they may differ in detail).
        let (full, _) = IslandLocator::new(&updated, &cfg).run().unwrap();
        full.check_invariants(&updated).unwrap();
        assert_eq!(
            incr.partition.num_hubs() + incr.partition.num_island_nodes(),
            updated.num_nodes(),
            "case (n={n}, hubs={hubs}, batch={batch}, seed={seed})"
        );
    }
}

#[test]
fn add_remove_churn_does_not_proliferate_hubs() {
    // 120 add/remove pairs that each return the graph to its base state.
    // The residual rounds run on the cold run's threshold schedule, so
    // the existing hubs get their BFS pass at a disturbed region before
    // any of its nodes can be promoted; resolving the threshold from the
    // residual's own max degree used to turn the biggest residual nodes
    // into hubs on every update, and the pruning rate eroded to nothing.
    // (Islands of at most 12 keep the regions an added edge joins within
    // `c_max`; a join that overflows it is split by new hubs, as in a
    // cold run, and those outlive the edge's removal.)
    let base = HubIslandConfig::new(2_000, 80)
        .island_size_range(3, 12)
        .noise_fraction(0.005)
        .generate(11)
        .graph;
    let mut engine = IGcnEngine::builder(base.clone()).build().unwrap();
    let model = GnnModel::gcn(8, 4, 4);
    let weights = ModelWeights::glorot(&model, 1);
    engine.prepare(&model, &weights).unwrap();
    let request = InferenceRequest::new(SparseFeatures::random(base.num_nodes(), 8, 0.4, 5));
    let cold_rate = engine.infer(&request).unwrap().report.aggregation_pruning_rate;
    let cold_hubs = engine.partition().num_hubs();
    assert!(cold_rate > 0.0);

    for pair in 0..120u64 {
        let batch = random_new_edges(&base, 8, 7_000 + pair);
        engine.apply_update(GraphUpdate::add_edges(batch.clone())).unwrap();
        engine.apply_update(GraphUpdate::remove_edges(batch)).unwrap();
    }
    assert_eq!(engine.graph(), &base, "every pair returns the graph to its base state");
    engine.partition().check_invariants(engine.graph()).unwrap();
    let rate = engine.infer(&request).unwrap().report.aggregation_pruning_rate;
    assert!(
        rate >= 0.9 * cold_rate,
        "pruning rate drifted from {cold_rate:.4} to {rate:.4} ({cold_hubs} -> {} hubs)",
        engine.partition().num_hubs()
    );
}
