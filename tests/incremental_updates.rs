//! Integration: incremental islandization on evolving graphs keeps
//! inference exact and invariants intact across long update sequences,
//! both through the free functions and through the serving engine's
//! `apply_update`.

use igcn::core::accel::{Accelerator, GraphUpdate, InferenceRequest};
use igcn::core::incremental::{apply_edges, incremental_islandize};
use igcn::core::{CoreError, IGcnEngine, IslandLocator, IslandizationConfig};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::{CsrGraph, NodeId, SparseFeatures};
use igcn::shard::ShardedEngine;
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
    //
    // What this graph does not show: on the dataset stand-ins the hubs
    // still ratchet. With the benchmark's batch generator (seed 42, eight
    // edges per batch, each batch added and then removed) the Pubmed
    // stand-in goes from 466 hubs to 866 after 100 pairs and 1 319 after
    // 1 000, and Cora from 161 to 230 after 100, 292 after 300 and 460
    // after 1 000: a hub is demoted only by starvation, so the hubs a
    // join promoted stay. The fix, a demotion pass over the residual, is
    // ROADMAP direction 5(a).
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

/// Everything a failed update must leave as it was.
fn assert_engine_unchanged(engine: &IGcnEngine, before: &IGcnEngine, what: &str) {
    assert_eq!(engine.graph(), before.graph(), "{what}: graph");
    assert_eq!(engine.partition(), before.partition(), "{what}: partition");
    assert_eq!(engine.locator_stats(), before.locator_stats(), "{what}: locator stats");
    assert!(engine.layout() == before.layout(), "{what}: layout");
}

fn assert_fleet_unchanged(fleet: &ShardedEngine, before: &ShardedEngine, what: &str) {
    assert_eq!(fleet.graph(), before.graph(), "{what}: graph");
    assert_eq!(fleet.engine().partition(), before.engine().partition(), "{what}: partition");
    assert!(fleet.engine().layout() == before.engine().layout(), "{what}: layout");
    assert_eq!(fleet.shard_structure(), before.shard_structure(), "{what}: shards");
    // The report carries the locator statistics; the output everything.
    let x = SparseFeatures::random(fleet.graph().num_nodes(), 8, 0.4, 1);
    let request = InferenceRequest::new(x);
    assert_eq!(fleet.report(&request).unwrap(), before.report(&request).unwrap(), "{what}");
    assert_eq!(fleet.infer(&request).unwrap().output, before.infer(&request).unwrap().output);
}

#[test]
fn failed_updates_leave_engine_and_fleet_as_they_were() {
    let model = GnnModel::gcn(8, 4, 4);
    let weights = ModelWeights::glorot(&model, 1);

    // An update fails after the partition has moved into it — in the
    // CSR patch of a later update of a batch, or in the residual rounds
    // — and the engine reads its partition back out of its layout.
    let graph = HubIslandConfig::new(600, 24).noise_fraction(0.01).generate(8).graph;
    let mut engine = IGcnEngine::builder(graph).build().unwrap();
    engine.prepare(&model, &weights).unwrap();
    // Not the state a cold build leaves: one update in.
    engine.apply_update(GraphUpdate::add_edges(random_new_edges(engine.graph(), 8, 1))).unwrap();
    let mut fleet = ShardedEngine::from_engine(&engine, 2).unwrap();
    let (engine_before, fleet_before) = (engine.clone(), fleet.clone());

    let absent = random_new_edges(engine.graph(), 3, 2);
    let batch = [
        GraphUpdate::add_edges(vec![absent[0]]),
        GraphUpdate::add_edges(vec![absent[1]]),
        GraphUpdate::remove_edges(vec![absent[2]]),
    ];
    let err = engine.apply_updates_batched(batch.iter().map(|u| (u, None))).unwrap_err();
    assert!(matches!(err, CoreError::MissingEdge { .. }), "{err}");
    assert_engine_unchanged(&engine, &engine_before, "missing edge in a batch");
    fleet.apply_update(batch[2].clone()).unwrap_err();
    assert_fleet_unchanged(&fleet, &fleet_before, "missing edge");

    // Hub 0 over forty two-node islands resolves in the rounds a cold
    // run takes and not one more; two new nodes joined by an edge have
    // no hub nearby and only resolve at threshold 1, five rounds later.
    let mut edges = Vec::new();
    for i in 0..40u32 {
        let a = 1 + 2 * i;
        edges.extend([(0, a), (0, a + 1), (a, a + 1)]);
    }
    let star = CsrGraph::from_undirected_edges(81, &edges).unwrap();
    let cold_rounds =
        IGcnEngine::builder(star.clone()).build().unwrap().locator_stats().rounds.len();
    assert!(cold_rounds < 6);
    let tight = IslandizationConfig { max_rounds: cold_rounds as u32, ..Default::default() };
    let mut engine = IGcnEngine::builder(star).island_config(tight).build().unwrap();
    engine.prepare(&model, &weights).unwrap();
    let mut fleet = ShardedEngine::from_engine(&engine, 2).unwrap();
    let (engine_before, fleet_before) = (engine.clone(), fleet.clone());
    let update = GraphUpdate::add_edges(vec![(81, 82)]).with_num_nodes(83);
    let err = engine.apply_update(update.clone()).unwrap_err();
    assert!(matches!(err, CoreError::RoundLimitExceeded { .. }), "{err}");
    assert_engine_unchanged(&engine, &engine_before, "round limit");
    fleet.apply_update(update).unwrap_err();
    assert_fleet_unchanged(&fleet, &fleet_before, "round limit");

    // And both still take a good update afterwards.
    let update = GraphUpdate::add_edges(vec![(1, 3)]);
    engine.apply_update(update.clone()).unwrap();
    fleet.apply_update(update).unwrap();
    assert!(engine.layout() == fleet.engine().layout());
}

/// A deep copy of what an engine's update may change — graph,
/// partition, locator statistics and everything its layout's `==`
/// compares — holding no handle on the engine's own graph, so the
/// engine keeps it alone and patches it in place.
#[derive(Debug, PartialEq)]
struct DeepCopy {
    graph: CsrGraph,
    partition: igcn::core::IslandPartition,
    stats: igcn::core::LocatorStats,
    perm: Vec<u32>,
    gather_order: Vec<u32>,
    islands: igcn::core::LaidIslands,
    inter_hub_edges: Vec<(u32, u32)>,
    work: Vec<u64>,
    bitmaps: Vec<igcn::core::IslandBitmap>,
    tasks: igcn::core::InterHubTasks,
}

impl DeepCopy {
    fn of(engine: &IGcnEngine) -> Self {
        let layout = engine.layout();
        DeepCopy {
            graph: engine.graph().clone(),
            partition: engine.partition().clone(),
            stats: engine.locator_stats().clone(),
            perm: layout.forward().to_vec(),
            gather_order: layout.gather_order().to_vec(),
            islands: layout.islands().clone(),
            inter_hub_edges: layout.inter_hub_edges().to_vec(),
            work: layout.schedule().work().to_vec(),
            bitmaps: (0..layout.num_islands()).map(|i| layout.bitmap(i).clone()).collect(),
            tasks: layout.inter_hub_tasks().clone(),
        }
    }
}

#[test]
fn failed_updates_leave_a_uniquely_held_engine_as_it_was() {
    // Each failure comes after two records that patched the engine's
    // own graph in place, so it is undone by reversing their patches —
    // not by dropping a copy, which is what a cloned engine (the other
    // failure test) stages on.
    let graph = HubIslandConfig::new(600, 24).noise_fraction(0.01).generate(8).graph;
    let mut engine = IGcnEngine::builder(graph).build().unwrap();
    let good = |engine: &IGcnEngine, seed: u64| {
        GraphUpdate::add_edges(random_new_edges(engine.graph(), 4, seed))
    };
    engine.apply_update(good(&engine, 1)).unwrap();
    let buffer = engine.graph().col_idx().as_ptr();
    let check = |engine: &IGcnEngine, before: &DeepCopy, what: &str| {
        assert_eq!(&DeepCopy::of(engine), before, "{what}");
        assert_eq!(engine.graph().col_idx().as_ptr(), buffer, "{what}: the graph was copied");
    };

    // A later record removes an absent edge.
    let before = DeepCopy::of(&engine);
    let absent = random_new_edges(engine.graph(), 1, 2);
    let batch = [good(&engine, 3), good(&engine, 4), GraphUpdate::remove_edges(absent)];
    let err = engine.apply_updates_batched(batch.iter().map(|u| (u, None))).unwrap_err();
    assert!(matches!(err, CoreError::MissingEdge { .. }), "{err}");
    check(&engine, &before, "missing edge");

    // A later record's logged rounds do not fit its graph.
    let forged = igcn::core::LocatorRounds::default();
    let batch =
        [(good(&engine, 5), None), (good(&engine, 6), None), (good(&engine, 7), Some(forged))];
    let err = engine.apply_updates_batched(batch).unwrap_err();
    assert!(matches!(err, CoreError::LoggedRoundsRejected { update: 2, .. }), "{err}");
    check(&engine, &before, "rejected rounds");

    // The log refuses the record, after two committed in place.
    engine.apply_update(good(&engine, 8)).unwrap();
    engine.apply_update(good(&engine, 9)).unwrap();
    let before = DeepCopy::of(&engine);
    #[derive(Debug)]
    enum LogError {
        Refused,
        Core,
    }
    impl From<CoreError> for LogError {
        fn from(_: CoreError) -> Self {
            LogError::Core
        }
    }
    let err =
        engine.apply_update_logged(good(&engine, 10), |_, _| Err(LogError::Refused)).unwrap_err();
    assert!(matches!(err, LogError::Refused), "{err:?}");
    check(&engine, &before, "log refused");
    engine.apply_update(good(&engine, 11)).unwrap();
    engine.partition().check_invariants(engine.graph()).unwrap();

    // A later record's rounds run past the round limit: hub 0 over forty
    // two-node islands resolves in the rounds a cold run takes, and two
    // new nodes joined by an edge only at threshold 1, later.
    let mut edges = Vec::new();
    for i in 0..40u32 {
        let a = 1 + 2 * i;
        edges.extend([(0, a), (0, a + 1), (a, a + 1)]);
    }
    let star = CsrGraph::from_undirected_edges(81, &edges).unwrap();
    let cold_rounds =
        IGcnEngine::builder(star.clone()).build().unwrap().locator_stats().rounds.len();
    let tight = IslandizationConfig { max_rounds: cold_rounds as u32, ..Default::default() };
    let mut engine = IGcnEngine::builder(star).island_config(tight).build().unwrap();
    engine.apply_update(GraphUpdate::add_edges(vec![(1, 5)])).unwrap();
    let (before, buffer) = (DeepCopy::of(&engine), engine.graph().col_idx().as_ptr());
    let batch = [
        GraphUpdate::add_edges(vec![(1, 3)]),
        GraphUpdate::remove_edges(vec![(1, 5)]),
        GraphUpdate::add_edges(vec![(81, 82)]).with_num_nodes(83),
    ];
    let err = engine.apply_updates_batched(batch.iter().map(|u| (u, None))).unwrap_err();
    assert!(matches!(err, CoreError::RoundLimitExceeded { .. }), "{err}");
    assert_eq!(DeepCopy::of(&engine), before, "round limit");
    assert_eq!(engine.graph().col_idx().as_ptr(), buffer, "round limit: the graph was copied");
    engine.apply_update(batch[0].clone()).unwrap();
    engine.partition().check_invariants(engine.graph()).unwrap();
}
