//! A layout keeps no copy of the graph: `IslandLayout::graph`, the
//! schedule-ordered CSR, is a view built on its first call. Seeded
//! update sequences check at every step that nothing that serves an
//! engine builds it — a cold build, `prepare`, `infer`, `apply_update`
//! logged through an `EngineStore`, a warm boot, a WAL boot and
//! `ShardedEngine::from_engine` — and that, once asked for, the view is
//! the engine's graph permuted by the layout and gives the plan's
//! normalisation bit for bit.

use igcn::core::accel::{Accelerator, GraphUpdate, InferenceRequest};
use igcn::core::{ExecConfig, IGcnEngine, IslandLayout};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::{NodeId, SparseFeatures};
use igcn::linalg::GcnNormalization;
use igcn::shard::ShardedEngine;
use igcn::store::{EngineStore, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FEATURE_DIM: usize = 8;

/// The next update: additions, removals, node growth, or a hub
/// stripped below the hub floor, in turn.
fn next_update(step: usize, rng: &mut StdRng, engine: &IGcnEngine) -> GraphUpdate {
    let graph = engine.graph();
    let n = graph.num_nodes() as u32;
    match step % 4 {
        0 => {
            let mut added = Vec::new();
            while added.len() < rng.gen_range(1..7usize) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b && !graph.has_edge(NodeId::new(a), NodeId::new(b)) {
                    added.push((a, b));
                }
            }
            GraphUpdate::add_edges(added)
        }
        1 => {
            let edges: Vec<(u32, u32)> = graph
                .iter_edges()
                .map(|(u, v)| (u.value(), v.value()))
                .filter(|e| e.0 < e.1)
                .collect();
            let mut removed: Vec<(u32, u32)> =
                (0..3).map(|_| edges[rng.gen_range(0..edges.len())]).collect();
            removed.sort_unstable();
            removed.dedup();
            GraphUpdate::remove_edges(removed)
        }
        2 => {
            let hubs = engine.partition().hubs();
            let hub = hubs[rng.gen_range(0..hubs.len())];
            GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)]).with_num_nodes(n as usize + 2)
        }
        _ => {
            let hubs = engine.partition().hubs();
            let &hub = hubs.iter().min_by_key(|&&h| graph.degree(NodeId::new(h))).unwrap();
            let row = graph.neighbors(NodeId::new(hub));
            GraphUpdate::remove_edges(row[1..].iter().map(|&nb| (hub, nb)).collect())
        }
    }
}

fn assert_unbuilt(layout: &IslandLayout, what: &str) {
    assert!(!layout.graph_is_materialised(), "{what} built the layout's graph");
}

fn assert_same_bits(a: &GcnNormalization, b: &GcnNormalization, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    assert_eq!(a.self_weight().to_bits(), b.self_weight().to_bits(), "{what}");
    for v in (0..a.len() as u32).map(NodeId::new) {
        assert_eq!(a.in_scale(v).to_bits(), b.in_scale(v).to_bits(), "{what}: node {v:?}");
        assert_eq!(a.out_scale(v).to_bits(), b.out_scale(v).to_bits(), "{what}: node {v:?}");
    }
}

/// Builds the view of `engine`'s layout and holds it to the engine's
/// graph and to the plan.
fn assert_view_is_the_permuted_graph(engine: &IGcnEngine, model: &GnnModel, what: &str) {
    let layout = engine.layout();
    let plan = engine.exec_plan(model);
    assert_unbuilt(layout, &format!("{what}: the plan"));
    let expected = engine.graph().permute(layout.permutation()).unwrap();
    assert_eq!(layout.graph(), &expected, "{what}: the view");
    assert!(layout.graph_is_materialised());
    assert_same_bits(plan.norm(), &model.normalization(layout.graph()), what);
    for other in [GnnModel::graphsage(FEATURE_DIM, 6, 3), GnnModel::gin(FEATURE_DIM, 6, 3, 0.25)] {
        let norm = engine.layout_normalization(&other);
        assert_same_bits(&norm, &other.normalization(layout.graph()), what);
    }
}

fn run_sequence(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(seed).graph;
    let model = GnnModel::gcn(FEATURE_DIM, 6, 3);
    let weights = ModelWeights::glorot(&model, seed);

    let mut live = IGcnEngine::builder(graph).build().unwrap();
    assert_unbuilt(live.layout(), "a cold build");
    live.prepare(&model, &weights).unwrap();
    assert_unbuilt(live.layout(), "prepare");

    let dir = std::env::temp_dir().join(format!("igcn-view-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = EngineStore::at(dir.join("engine.snap"));
    store.checkpoint(&live).unwrap();
    let warm = Snapshot::read(store.snapshot_path()).unwrap().warm_engine(ExecConfig::default());
    let warm = warm.unwrap();
    assert_unbuilt(warm.layout(), "a warm boot");
    assert!(warm.layout() == live.layout(), "seed {seed}: the warm-booted layout");

    let mut fleet = ShardedEngine::from_engine(&live, 2).unwrap();
    assert_unbuilt(live.layout(), "ShardedEngine::from_engine");
    for (s, shard) in fleet.shards().iter().enumerate() {
        assert_unbuilt(shard.layout(), &format!("shard {s}'s cut"));
    }

    for step in 0..steps {
        let what = format!("seed {seed} step {step}");
        let update = next_update(step, &mut rng, &live);
        store.apply_update(&mut live, update.clone()).unwrap();
        assert_unbuilt(live.layout(), &format!("{what}: apply_update"));
        fleet.apply_update(update).unwrap();
        assert_unbuilt(fleet.engine().layout(), &format!("{what}: a fleet update"));

        let x = SparseFeatures::random(live.graph().num_nodes(), FEATURE_DIM, 0.3, seed + 7);
        let request = InferenceRequest::new(x);
        let expected = live.infer(&request).unwrap();
        assert_unbuilt(live.layout(), &format!("{what}: infer"));
        assert_eq!(fleet.infer(&request).unwrap().output, expected.output, "{what}: fleet");
        assert_unbuilt(fleet.engine().layout(), &format!("{what}: a fleet's infer"));

        let booted = store.boot(ExecConfig::default()).unwrap().engine;
        assert_unbuilt(booted.layout(), &format!("{what}: a WAL boot"));
        assert!(booted.layout() == live.layout(), "{what}: the WAL-booted layout");
        assert_eq!(booted.infer(&request).unwrap().output, expected.output, "{what}");
        assert_unbuilt(booted.layout(), &format!("{what}: a WAL-booted infer"));

        assert_view_is_the_permuted_graph(&live, &model, &what);
        assert_view_is_the_permuted_graph(&booted, &model, &format!("{what}: WAL boot"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serving_never_builds_the_layout_graph_and_the_view_is_the_permuted_graph() {
    for seed in [5, 23, 71] {
        run_sequence(seed, 12);
    }
}
