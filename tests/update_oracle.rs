//! Differential update oracle: seeded random `GraphUpdate` sequences
//! driven through the live engine and an `EngineStore` (every step is
//! logged, and then booted), checked after every step against the
//! partition invariants, a cold CSR build of the same edge set, the
//! `CpuReference` forward pass, a boot of the log so far (its replay
//! applies the logged locator rounds, checked against each record's
//! graph) and the same updates applied to a sharded fleet; and at the
//! end against one batched replay of the whole sequence.

use std::collections::BTreeSet;

use igcn::core::accel::{Accelerator, GraphUpdate, InferenceRequest, UpdateReport};
use igcn::core::{CpuReference, ExecConfig, IGcnEngine, IslandLayout};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::datasets::Dataset;
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::{CsrGraph, NodeId, SparseFeatures};
use igcn::shard::ShardedEngine;
use igcn::store::EngineStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FEATURE_DIM: usize = 8;
const TOLERANCE: f32 = 1e-4;

/// The oracle's own model of the graph: a node count and a set of
/// `(min, max)` undirected edges.
struct EdgeSet {
    nodes: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl EdgeSet {
    fn of(graph: &CsrGraph) -> Self {
        let edges = graph
            .iter_edges()
            .map(|(u, v)| (u.value(), v.value()))
            .filter(|&(u, v)| u < v)
            .collect();
        EdgeSet { nodes: graph.num_nodes(), edges }
    }

    fn apply(&mut self, update: &GraphUpdate) {
        self.nodes = update.new_num_nodes.unwrap_or(self.nodes);
        for &(a, b) in &update.removed_edges {
            self.edges.remove(&(a.min(b), a.max(b)));
        }
        for &(a, b) in &update.added_edges {
            self.edges.insert((a.min(b), a.max(b)));
        }
    }

    fn cold_graph(&self) -> CsrGraph {
        let edges: Vec<(u32, u32)> = self.edges.iter().copied().collect();
        CsrGraph::from_undirected_edges(self.nodes, &edges).unwrap()
    }

    fn absent_pair(&self, rng: &mut StdRng, lo: u32) -> (u32, u32) {
        loop {
            let a = rng.gen_range(lo..self.nodes as u32);
            let b = rng.gen_range(0..self.nodes as u32);
            if a != b && !self.edges.contains(&(a.min(b), a.max(b))) {
                return (a, b);
            }
        }
    }

    fn present_edges(&self, rng: &mut StdRng, count: usize) -> Vec<(u32, u32)> {
        let all: Vec<(u32, u32)> = self.edges.iter().copied().collect();
        let picked: BTreeSet<(u32, u32)> =
            (0..count).map(|_| all[rng.gen_range(0..all.len())]).collect();
        // Either orientation must be accepted.
        picked.into_iter().map(|(a, b)| if rng.gen_bool(0.5) { (a, b) } else { (b, a) }).collect()
    }
}

/// The next update of the sequence. Steps cycle through the kinds so
/// every seed sees every kind, whatever its random choices.
fn next_update(step: usize, rng: &mut StdRng, engine: &IGcnEngine, model: &EdgeSet) -> GraphUpdate {
    let hubs = engine.partition().hubs();
    match step % 6 {
        // Plain additions.
        0 => GraphUpdate::add_edges(
            (0..rng.gen_range(1..7usize)).map(|_| model.absent_pair(rng, 0)).collect(),
        ),
        // Plain removals.
        1 => {
            let count = rng.gen_range(1..5usize);
            GraphUpdate::remove_edges(model.present_edges(rng, count))
        }
        // Both at once, with one edge in both lists (it must survive)
        // and one addition given twice.
        2 => {
            let removed = model.present_edges(rng, 3);
            let fresh = model.absent_pair(rng, 0);
            GraphUpdate::add_edges(vec![fresh, removed[0], (fresh.1, fresh.0)])
                .and_remove_edges(removed)
        }
        // Node growth: three nodes arrive, one wired to a hub, one to
        // the first, one isolated.
        3 => {
            let n = model.nodes as u32;
            let hub = hubs[rng.gen_range(0..hubs.len())];
            GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)]).with_num_nodes(model.nodes + 3)
        }
        // Hub–hub edges: add one between two hubs that lack it, and
        // remove one the partition records (when it has any).
        4 => {
            let mut update = GraphUpdate::default();
            for _ in 0..50 {
                let a = hubs[rng.gen_range(0..hubs.len())];
                let b = hubs[rng.gen_range(0..hubs.len())];
                if a != b && !model.edges.contains(&(a.min(b), a.max(b))) {
                    update = update.and_add_edges(vec![(a, b)]);
                    break;
                }
            }
            let recorded = engine.partition().inter_hub_edges();
            if !recorded.is_empty() {
                let gone = recorded[rng.gen_range(0..recorded.len())];
                update = update.and_remove_edges(vec![gone]);
            }
            update
        }
        // Forced demotion: strip the smallest hub down to one edge,
        // below the hub floor of two.
        _ => {
            let graph = engine.graph();
            let &hub = hubs.iter().min_by_key(|&&h| graph.degree(NodeId::new(h))).unwrap();
            let neighbors = graph.neighbors(NodeId::new(hub));
            GraphUpdate::remove_edges(neighbors[1..].iter().map(|&nb| (hub, nb)).collect())
        }
    }
}

fn assert_same_report(a: &UpdateReport, b: &UpdateReport, what: &str) {
    assert_eq!(a.dissolved_islands, b.dissolved_islands, "{what}");
    assert_eq!(a.reclassified_nodes, b.reclassified_nodes, "{what}");
    assert_eq!(a.demoted_hubs, b.demoted_hubs, "{what}");
    assert_eq!(a.num_nodes, b.num_nodes, "{what}");
    assert_eq!(a.locator_stats, b.locator_stats, "{what}");
}

fn assert_same_engine(a: &IGcnEngine, b: &IGcnEngine, what: &str) {
    assert_eq!(a.graph(), b.graph(), "{what}: graph");
    assert_eq!(a.partition(), b.partition(), "{what}: partition");
    assert_eq!(a.locator_stats(), b.locator_stats(), "{what}: locator stats");
    assert!(a.layout() == b.layout(), "{what}: layout");
}

fn run_sequence(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base_graph = HubIslandConfig::new(400, 16).noise_fraction(0.01).generate(seed).graph;
    let model = GnnModel::gcn(FEATURE_DIM, 6, 3);
    let weights = ModelWeights::glorot(&model, seed);
    let mut base = IGcnEngine::builder(base_graph).build().unwrap();
    base.prepare(&model, &weights).unwrap();

    let dir = std::env::temp_dir().join(format!("igcn-oracle-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = EngineStore::at(dir.join("engine.snap"));
    store.checkpoint(&base).unwrap();

    let mut live = base.clone();
    let mut fleet = ShardedEngine::from_engine(&base, 2).unwrap();
    let mut edge_set = EdgeSet::of(base.graph());
    let mut log: Vec<GraphUpdate> = Vec::new();
    let mut reports: Vec<UpdateReport> = Vec::new();
    let mut demotions = 0;

    for step in 0..steps {
        let update = next_update(step, &mut rng, &live, &edge_set);
        // Every fifth step someone else still holds the layout, so the
        // recomposition must copy the bitmaps it carries; otherwise the
        // engine holds it alone and gives them away.
        let layout_held = (step % 5 == 0).then(|| live.layout_arc());
        let report = store.apply_update(&mut live, update.clone()).unwrap();
        fleet.apply_update(update.clone()).unwrap();
        edge_set.apply(&update);
        demotions += report.demoted_hubs;

        // Oracle 1: every islandization invariant.
        live.partition().check_invariants(live.graph()).unwrap();
        // Oracle 2: the patched CSR is the cold build of the edge set.
        assert_eq!(live.graph(), &edge_set.cold_graph(), "seed {seed} step {step}: graph");
        assert_eq!(report.num_nodes, edge_set.nodes);
        // Oracle 3: the recomposed layout, carried bitmaps and all, is
        // the from-scratch composition.
        let num_pes = live.consumer_config().num_pes;
        assert!(
            live.layout() == &IslandLayout::new(live.graph(), live.partition(), num_pes),
            "seed {seed} step {step}: layout"
        );
        // ...and un-permutes to the partition it was composed from, which
        // is what a failing update would restore.
        assert_eq!(
            &live.layout().original_partition(),
            live.partition(),
            "seed {seed} step {step}"
        );
        drop(layout_held);
        // Oracle 4: the dense reference forward pass.
        let features = SparseFeatures::random(edge_set.nodes, FEATURE_DIM, 0.3, seed ^ step as u64);
        let request = InferenceRequest::new(features);
        let mut reference = CpuReference::new(live.graph_arc());
        reference.prepare(&model, &weights).unwrap();
        let expected = reference.infer(&request).unwrap().output;
        let got = live.infer(&request).unwrap().output;
        let error = got.max_abs_diff(&expected);
        assert!(error <= TOLERANCE, "seed {seed} step {step}: off the reference by {error}");
        assert_eq!(fleet.infer(&request).unwrap().output, got, "seed {seed} step {step}: fleet");
        // Oracle 5: a boot of the log so far is the live engine, bit for
        // bit — every logged record replays without a search.
        let booted = store.boot(ExecConfig::default()).unwrap();
        assert_eq!(booted.replayed_updates, step + 1);
        assert_same_engine(&live, &booted.engine, &format!("seed {seed} step {step}: WAL boot"));
        let expected = live.infer(&request).unwrap();
        let got = booted.engine.infer(&request).unwrap();
        assert_eq!(got.output, expected.output, "seed {seed} step {step}: WAL-booted output");
        assert_eq!(got.report, expected.report, "seed {seed} step {step}: WAL-booted report");

        log.push(update);
        reports.push(report);
    }
    assert!(demotions >= 1, "seed {seed}: the sequence must force a hub demotion");

    // One batched replay lands where the one-by-one updates did.
    let mut batched = base.clone();
    let batched_reports = batched.apply_updates_batched(log.iter().map(|u| (u, None))).unwrap();
    assert_eq!(batched_reports.len(), reports.len());
    for (step, (a, b)) in reports.iter().zip(&batched_reports).enumerate() {
        assert_same_report(a, b, &format!("seed {seed} step {step}: batched report"));
    }
    assert_same_engine(&live, &batched, "batched replay");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_update_sequences_match_every_oracle() {
    for seed in [3, 17, 101] {
        run_sequence(seed, 24);
    }
}

/// The same sequences over 80 seeds — what guards the layout patch of
/// `IslandLayout::recompose`. Too long for tier-1 in a debug build; CI
/// runs it as `cargo test --release --test update_oracle -- --ignored`.
#[test]
#[ignore = "soak: 80 seeds, run by CI in release"]
fn random_update_sequences_match_every_oracle_soak() {
    for seed in 1_000..1_080 {
        run_sequence(seed, 24);
    }
}

/// Eight distinct edges absent from `base`, loop-free: the shape of the
/// benchmark's update batches.
fn absent_batch(base: &CsrGraph, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let n = base.num_nodes() as u32;
    let mut batch: Vec<(u32, u32)> = Vec::with_capacity(8);
    while batch.len() < 8 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let edge = (a.min(b), a.max(b));
        if a != b && !base.has_edge(NodeId::new(a), NodeId::new(b)) && !batch.contains(&edge) {
            batch.push(edge);
        }
    }
    batch
}

/// Churn at dataset scale: 300 pairs of 8-edge batches on the Cora
/// stand-in, each batch added and then removed. Hubs only ratchet up
/// under such churn (see `add_remove_churn_does_not_proliferate_hubs`
/// in `tests/incremental_updates.rs`), so the layout patch runs over a
/// growing hub set; every 25 pairs, after the add and after the remove,
/// the engine's layout must equal the from-scratch composition of its
/// graph and partition. CI runs it with the 80-seed soak above.
#[test]
#[ignore = "soak: 300 churn pairs on the Cora stand-in, run by CI in release"]
fn dataset_scale_churn_keeps_the_layout_a_fresh_composition() {
    let base = Dataset::Cora.generate(42).graph;
    let mut engine = IGcnEngine::builder(base.clone()).build().unwrap();
    let num_pes = engine.layout().schedule().wave_width();
    let fresh = |engine: &IGcnEngine| {
        *engine.layout() == IslandLayout::new(engine.graph(), engine.partition(), num_pes)
    };
    let mut rng = StdRng::seed_from_u64(42);
    for pair in 1..=300 {
        let batch = absent_batch(&base, &mut rng);
        engine.apply_update(GraphUpdate::add_edges(batch.clone())).unwrap();
        assert!(pair % 25 != 0 || fresh(&engine), "pair {pair}: layout after the add");
        engine.apply_update(GraphUpdate::remove_edges(batch)).unwrap();
        assert!(pair % 25 != 0 || fresh(&engine), "pair {pair}: layout after the remove");
    }
    assert_eq!(engine.graph(), &base, "every pair returns the graph to its base state");
}
