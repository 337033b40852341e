//! # igcn-shard — partitioned serving
//!
//! Graphs that exceed one engine's memory shard along the structure
//! islandization already discovered: **whole islands** go to shards,
//! **hubs replicate** into every shard that contacts them (the halo),
//! and the only cross-shard traffic is hub state — exactly the rows
//! the paper's DHUB-PRC already treats as shared. A fleet is a
//! coordinator engine plus K shard layouts: the engine holds the graph,
//! the islandization, the model, the thread count and the plan, and the
//! fleet adds only the shards and the halo exchange between them. The
//! subsystem:
//!
//! * [`sharder`] — deterministic island→shard assignment minimising
//!   hub replication (the edge cut) under a work-balance cap, plus the
//!   [`ShardingReport`] cut/replication metrics;
//! * [`ShardedEngine`] — a coordinator [`IGcnEngine`] whose layout is
//!   cut into K shard layouts, behind the full [`Accelerator`] trait (a
//!   [`Shard`] is its islands' layout plus the ID maps back to the
//!   global layout, never an engine of its own), with a deterministic
//!   per-layer **halo exchange** (hub XW broadcast → shard-local
//!   islands → global schedule-order merge) whose outputs and
//!   `ExecStats` are **bit-identical** to a single engine at every
//!   shard count and thread count. [`ShardedEngine::apply_update`]
//!   hands a structural change to the coordinator, then re-cuts all K
//!   shards from its new layout with an affinity pass that keeps
//!   undisturbed islands on the shard they were on;
//! * persistence — a fleet persists as its coordinator's ordinary
//!   snapshot ([`ShardedEngine::snapshot`]) and boots by re-sharding
//!   the warm engine it yields:
//!   `ShardedEngine::from_engine(&Snapshot::read(p)?.warm_engine(cfg)?, k)`,
//!   with no locator pass anywhere. A shard is a pure function of the
//!   layout and the island assignment, so nothing of it is stored.
//!
//! [`Accelerator`]: igcn_core::Accelerator
//! [`IGcnEngine`]: igcn_core::IGcnEngine
//! [`ShardingReport`]: sharder::ShardingReport
//!
//! # Why bit-identity is possible
//!
//! The single engine is already deterministic at every thread count
//! because its parallel path computes per-island results purely and
//! merges hub-shared state sequentially in schedule order. Sharding
//! reuses that exact seam: a shard's local IDs are *order-isomorphic*
//! to the global layout IDs (hubs keep their global detection order,
//! islands keep their schedule order), so every local accumulation
//! happens in the same order as in the single engine; the coordinator
//! then replays the exported hub contributions in the same global
//! schedule order the single engine uses. No floating-point operation
//! is reordered — the fleet is a distributed execution of the *same*
//! computation DAG.

pub mod engine;
pub mod error;
pub mod sharder;

pub use engine::{Shard, ShardHealth, ShardStructure, ShardUpdateReport, ShardedEngine};
pub use error::ShardError;
pub use sharder::{assign_islands, sharding_report, ShardAssignment, ShardingReport};

/// Every failpoint this crate evaluates, for the chaos harness to
/// enumerate. `shard::run_layer` sits inside the per-shard, per-layer
/// execution seam: a `panic` action there simulates a shard dying
/// mid-request and must be contained by the fleet.
pub const FAILPOINTS: &[&str] = &["shard::run_layer"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use igcn_core::{Accelerator, ExecConfig, GraphUpdate, IGcnEngine, InferenceRequest};
    use igcn_gnn::{GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::{CsrGraph, NodeId, SparseFeatures};
    use igcn_store::{Snapshot, StoreError};

    const N: usize = 320;
    const DIM: usize = 14;

    fn setup(seed: u64) -> (Arc<CsrGraph>, GnnModel, ModelWeights, SparseFeatures) {
        let g = HubIslandConfig::new(N, 12).noise_fraction(0.03).generate(seed);
        let model = GnnModel::gcn(DIM, 9, 5);
        let weights = ModelWeights::glorot(&model, seed + 1);
        let x = SparseFeatures::random(N, DIM, 0.3, seed + 2);
        (Arc::new(g.graph), model, weights, x)
    }

    fn single(graph: &Arc<CsrGraph>, model: &GnnModel, weights: &ModelWeights) -> IGcnEngine {
        let mut e = IGcnEngine::builder(Arc::clone(graph)).build().unwrap();
        e.prepare(model, weights).unwrap();
        e
    }

    #[test]
    fn sharded_outputs_and_stats_are_bit_identical() {
        let (graph, model, weights, x) = setup(3);
        let reference = single(&graph, &model, &weights);
        let (ref_out, ref_stats) = reference.run(&x, &model, &weights).unwrap();
        for k in [1usize, 2, 4] {
            let sharded = ShardedEngine::from_engine(&reference, k).unwrap();
            assert_eq!(sharded.num_shards(), k);
            let (out, stats) = sharded.run(&x, &model, &weights).unwrap();
            assert_eq!(out, ref_out, "outputs diverged at {k} shards");
            assert_eq!(stats, ref_stats, "stats diverged at {k} shards");
        }
    }

    #[test]
    fn shard_partitions_satisfy_invariants() {
        let (graph, model, weights, _) = setup(5);
        let reference = single(&graph, &model, &weights);
        let sharded = ShardedEngine::from_engine(&reference, 3).unwrap();
        let mut owned_nodes = 0;
        for shard in sharded.shards() {
            let layout = shard.layout();
            assert!(!layout.graph_is_materialised(), "a shard is cut without a subgraph");
            // Its permutation is the identity, so the partition it gives
            // back is in local IDs, those of the graph it spells out.
            layout
                .original_partition()
                .check_invariants(layout.graph())
                .expect("shard partition invariants");
            // The graph the shard's islands spell out is its subgraph:
            // each owned island node's row, its hub entries mirrored,
            // and the inter-hub pairs between its halo hubs.
            let original = shard.gather_original();
            let mut local = vec![u32::MAX; graph.num_nodes()];
            for (l, &v) in (0u32..).zip(original) {
                local[v as usize] = l;
            }
            let mut edges = Vec::new();
            for (l, &v) in (0u32..).zip(original).skip(shard.num_hubs()) {
                for &nb in graph.neighbors(NodeId::new(v)) {
                    let nb = local[nb as usize];
                    edges.push((l, nb));
                    if (nb as usize) < shard.num_hubs() {
                        edges.push((nb, l));
                    }
                }
            }
            for &(a, b) in reference.partition().inter_hub_edges() {
                let (a, b) = (local[a as usize], local[b as usize]);
                if a != u32::MAX && b != u32::MAX {
                    edges.extend([(a, b), (b, a)]);
                }
            }
            let subgraph = CsrGraph::from_directed_edges(shard.num_nodes(), &edges).unwrap();
            assert_eq!(layout.graph(), &subgraph, "the shard's subgraph");
            owned_nodes += shard.num_owned_nodes();
            // Local IDs keep the global order, so an owned island's
            // bitmap is the global one bit for bit.
            for (j, &gi) in shard.islands().iter().enumerate() {
                let global = reference.layout().bitmap(gi as usize);
                assert_eq!(layout.bitmap(j), global, "global island {gi}");
            }
        }
        assert_eq!(owned_nodes, reference.partition().num_island_nodes());
        let report = sharded.sharding_report();
        assert!(report.replication_factor > 0.0);
        assert!(report.replicated_hub_slots > 0);
        assert!(sharded.halo_bytes_per_inference(&model) > 0);
    }

    #[test]
    fn routed_updates_stay_bit_identical() {
        let (graph, model, weights, _) = setup(7);
        let mut reference = single(&graph, &model, &weights);
        let mut sharded = ShardedEngine::from_engine(&reference, 2).unwrap();

        let n = graph.num_nodes() as u32;
        let hub = reference.partition().hubs()[0];
        let update =
            GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)]).with_num_nodes(n as usize + 2);
        reference.apply_update(update.clone()).unwrap();
        let report = sharded.apply_update(update).unwrap();
        assert_eq!(report.update.num_nodes, n as usize + 2);

        // A removal that dissolves an island, through both paths.
        let island = reference.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *reference
            .graph()
            .neighbors(NodeId::new(a))
            .iter()
            .find(|&&nb| nb != a)
            .expect("island node has a neighbor");
        let removal = GraphUpdate::remove_edges(vec![(a, b)]);
        reference.apply_update(removal.clone()).unwrap();
        sharded.apply_update(removal).unwrap();

        let x = SparseFeatures::random(reference.graph().num_nodes(), DIM, 0.3, 11);
        let (ref_out, ref_stats) = reference.run(&x, &model, &weights).unwrap();
        let (out, stats) = sharded.run(&x, &model, &weights).unwrap();
        assert_eq!(out, ref_out, "post-update outputs diverged");
        assert_eq!(stats, ref_stats, "post-update stats diverged");
    }

    #[test]
    fn a_fleet_update_touches_nothing_it_shares() {
        // The coordinator shares the source engine's graph and layout,
        // and a fleet clone shares them with both: an update stages on
        // a clone of the coordinator and commits by replacing it, so
        // neither the source nor the clone may see any of it.
        let (graph, model, weights, x) = setup(27);
        let engine = single(&graph, &model, &weights);
        let mut fleet = ShardedEngine::from_engine(&engine, 2).unwrap();
        let twin = fleet.clone();
        let request = InferenceRequest::new(x);
        let (graph_before, partition_before, layout_before) =
            (engine.graph().clone(), engine.partition().clone(), engine.layout().clone());
        let engine_out = engine.infer(&request).unwrap().output;
        let twin_out = twin.infer(&request).unwrap().output;
        assert_eq!(twin_out, engine_out);

        let n = graph.num_nodes() as u32;
        let hub = engine.partition().hubs()[0];
        fleet
            .apply_update(
                GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)]).with_num_nodes(n as usize + 2),
            )
            .unwrap();
        let island = engine.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *engine.graph().neighbors(NodeId::new(a)).iter().find(|&&nb| nb != a).unwrap();
        fleet.apply_update(GraphUpdate::remove_edges(vec![(a, b)])).unwrap();
        assert_eq!(fleet.engine().graph().num_nodes(), N + 2);

        assert_eq!(engine.graph(), &graph_before, "source engine: graph");
        assert_eq!(engine.partition(), &partition_before, "source engine: partition");
        assert!(engine.layout() == &layout_before, "source engine: layout");
        assert_eq!(engine.infer(&request).unwrap().output, engine_out, "source engine: output");
        assert_eq!(twin.engine().graph(), &graph_before, "fleet clone: graph");
        assert_eq!(twin.infer(&request).unwrap().output, twin_out, "fleet clone: output");
    }

    #[test]
    fn concurrent_callers_on_one_fleet_match_the_single_engine() {
        const CALLERS: usize = 4;
        const EACH: usize = 3;
        let (graph, model, weights, _) = setup(9);
        let reference = single(&graph, &model, &weights);
        let requests: Vec<InferenceRequest> = (0..(CALLERS * EACH) as u64)
            .map(|i| InferenceRequest::new(SparseFeatures::random(N, DIM, 0.25, 40 + i)).with_id(i))
            .collect();
        let expected: Vec<_> = requests.iter().map(|r| reference.infer(r).unwrap()).collect();
        for threads in [1, 2, 8] {
            let mut sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
            sharded.set_exec_config(ExecConfig::default().with_threads(threads));
            // One caller: order kept, each answer the single engine's.
            let alone: Vec<_> = requests.iter().map(|r| sharded.infer(r).unwrap()).collect();
            for (response, expected) in alone.iter().zip(&expected) {
                assert_eq!(response.id, expected.id);
                assert_eq!(response.output, expected.output, "fleet diverged at {threads} threads");
            }
            // Several callers at once — what serving workers do: they
            // share the fleet's state pool and the helper pool, and
            // nothing of each other's answers.
            let concurrent: Vec<_> = std::thread::scope(|scope| {
                let sharded = &sharded;
                let callers: Vec<_> = requests
                    .chunks(EACH)
                    .map(|mine| {
                        scope.spawn(move || {
                            mine.iter().map(|r| sharded.infer(r).unwrap()).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                callers.into_iter().flat_map(|c| c.join().unwrap()).collect()
            });
            assert_eq!(concurrent, alone, "concurrent callers diverge at {threads} threads");
        }
    }

    #[test]
    fn unprepared_and_bad_shapes_are_errors() {
        let (graph, model, weights, x) = setup(13);
        let reference = single(&graph, &model, &weights);
        let mut sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
        // from_engine inherits the prepared model; build an unprepared
        // one from an unprepared source.
        let bare = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
        let unprepared = ShardedEngine::from_engine(&bare, 2).unwrap();
        assert!(matches!(
            unprepared.infer(&InferenceRequest::new(x.clone())),
            Err(igcn_core::CoreError::NotPrepared { .. })
        ));
        sharded.prepare(&model, &weights).unwrap();
        let wrong = InferenceRequest::new(SparseFeatures::random(N / 2, DIM, 0.3, 1));
        assert!(matches!(sharded.infer(&wrong), Err(igcn_core::CoreError::ShapeMismatch { .. })));
        // The direct path refuses wrong rows and wrong width with the
        // single engine's exact error.
        for bad in
            [SparseFeatures::random(N / 2, DIM, 0.3, 1), SparseFeatures::random(N, 3, 0.3, 1)]
        {
            let got = sharded.run(&bad, &model, &weights).unwrap_err();
            assert!(matches!(got, igcn_core::CoreError::ShapeMismatch { .. }), "{got}");
            assert_eq!(got, reference.run(&bad, &model, &weights).unwrap_err());
        }
        assert!(matches!(
            ShardedEngine::from_engine(&reference, 0),
            Err(ShardError::InvalidShardCount { .. })
        ));
    }

    #[test]
    fn coordinator_snapshot_round_trip_cold_starts_the_fleet() {
        // The fleet's manifest is its coordinator snapshot: written,
        // read back, warm-booted and re-sharded, the fleet serves as the
        // single engine does.
        let (graph, model, weights, x) = setup(17);
        let reference = single(&graph, &model, &weights);
        let sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
        let path =
            std::env::temp_dir().join(format!("igcn-shard-test-{}.snap", std::process::id()));
        sharded.snapshot().write(&path).unwrap();

        let boot = |path: &std::path::Path| -> Result<ShardedEngine, ShardError> {
            let engine = Snapshot::read(path)?.warm_engine(ExecConfig::default())?;
            ShardedEngine::from_engine(&engine, 2)
        };
        let booted = boot(&path).unwrap();
        assert_eq!(booted.num_shards(), 2);
        let request = InferenceRequest::new(x).with_id(5);
        let a = reference.infer(&request).unwrap();
        let b = booted.infer(&request).unwrap();
        assert_eq!(a.output, b.output, "fleet cold-start diverged from single engine");
        assert_eq!(b.report, sharded.infer(&request).unwrap().report);
        assert_eq!(b.id, 5);

        // A tampered byte is refused by the snapshot checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let got = boot(&path).err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(got, Some(ShardError::Store(StoreError::ChecksumMismatch { .. }))),
            "{got:?}"
        );
    }

    #[test]
    fn pooled_states_are_reused_and_stay_bit_identical() {
        let (graph, model, weights, x) = setup(21);
        let reference = single(&graph, &model, &weights);
        let sharded = ShardedEngine::from_engine(&reference, 3).unwrap();
        assert_eq!(sharded.pooled_state_sets(), 0);

        let expected = reference.infer(&InferenceRequest::new(x.clone()).with_id(0)).unwrap();
        let first = sharded.infer(&InferenceRequest::new(x.clone()).with_id(0)).unwrap();
        assert_eq!(first.output, expected.output);
        assert_eq!(sharded.pooled_state_sets(), 1, "the state set returns to the pool");

        // The second request reuses the pooled set (still one set idle
        // afterwards, none leaked) and stays bit-identical — including
        // with *different* features, which stress the re-gather.
        let second = sharded.infer(&InferenceRequest::new(x.clone()).with_id(1)).unwrap();
        assert_eq!(second.output, expected.output, "pooled re-run diverged");
        assert_eq!(sharded.pooled_state_sets(), 1);

        let y = SparseFeatures::random(N, DIM, 0.35, 99);
        let expected_y = reference.infer(&InferenceRequest::new(y.clone())).unwrap();
        let got_y = sharded.infer(&InferenceRequest::new(y)).unwrap();
        assert_eq!(got_y.output, expected_y.output, "pooled run with new features diverged");
        assert_eq!(sharded.pooled_state_sets(), 1);
    }

    #[test]
    fn update_commit_clears_the_state_pool_and_reports_structure() {
        let (graph, model, weights, x) = setup(23);
        let reference = single(&graph, &model, &weights);
        let mut sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
        sharded.infer(&InferenceRequest::new(x)).unwrap();
        assert_eq!(sharded.pooled_state_sets(), 1);

        let n = graph.num_nodes() as u32;
        let hub = reference.partition().hubs()[0];
        let update = GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1);
        let report = sharded.apply_update(update).unwrap();
        assert_eq!(sharded.pooled_state_sets(), 0, "commit must drop pooled capacity");

        // The per-shard structural stats line up with the live fleet
        // and partition the owned node set exactly.
        assert_eq!(report.shard_structure, sharded.shard_structure());
        assert_eq!(report.shard_structure.len(), sharded.num_shards());
        let owned: usize = report.shard_structure.iter().map(|s| s.owned_nodes).sum();
        assert_eq!(owned, sharded.engine().partition().num_island_nodes());
        let islands = sharded.engine().layout().islands();
        for (shard, s) in sharded.shards().iter().zip(&report.shard_structure) {
            assert_eq!(s.islands, shard.islands().len());
            assert_eq!(s.halo_hubs, shard.num_hubs());
            let expected_slots: usize =
                shard.islands().iter().map(|&gi| islands.hubs(gi as usize).len()).sum();
            assert_eq!(s.contrib_slots, expected_slots);
        }
    }

    #[test]
    fn shard_reports_expose_the_replication_overhead() {
        let (graph, model, weights, x) = setup(25);
        let reference = single(&graph, &model, &weights);
        let request = InferenceRequest::new(x);

        let fleet = ShardedEngine::from_engine(&reference, 3).unwrap();
        let per_shard = fleet.shard_reports(&request).unwrap();
        assert_eq!(per_shard.len(), fleet.num_shards());
        for stats in &per_shard {
            assert!(stats.total_scalar_ops() > 0, "every shard does real work");
        }

        // Replicated hubs (hubs contacted from more than one shard)
        // recompute their XW rows once per contacting shard, so total
        // fleet *combination* work strictly exceeds the same fleet
        // collapsed to one shard, where every contacted hub exists
        // exactly once. (Total ops are not comparable — aggregation
        // pruning sees different windows — but combination work counts
        // rows, and replication adds rows.)
        assert!(fleet.sharding_report().replicated_hub_slots > 0, "the cut replicates hubs");
        let solo = ShardedEngine::from_engine(&reference, 1).unwrap();
        let comb = |reports: &[igcn_core::stats::ExecStats]| -> u64 {
            reports.iter().flat_map(|s| s.layers.iter()).map(|l| l.combination_ops.total()).sum()
        };
        let fleet_comb = comb(&per_shard);
        let solo_comb = comb(&solo.shard_reports(&request).unwrap());
        assert!(
            fleet_comb > solo_comb,
            "3-shard combination work {fleet_comb} should exceed 1-shard {solo_comb} by the halo \
             XW recomputes"
        );

        // Unprepared fleets refuse.
        let bare = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
        let unprepared = ShardedEngine::from_engine(&bare, 2).unwrap();
        assert!(matches!(
            unprepared.shard_reports(&request),
            Err(igcn_core::CoreError::NotPrepared { .. })
        ));
    }

    #[test]
    fn serving_engine_front_end_serves_a_sharded_fleet() {
        use igcn_serve::{ServingConfig, ServingEngine};
        let (graph, model, weights, _) = setup(19);
        let reference = single(&graph, &model, &weights);
        let sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
        let backend: Arc<dyn Accelerator> = Arc::new(sharded);
        let serving =
            ServingEngine::start(Arc::clone(&backend), ServingConfig::default().with_workers(2));
        let tickets: Vec<_> = (0..6u64)
            .map(|i| {
                let request =
                    InferenceRequest::new(SparseFeatures::random(N, DIM, 0.25, 70 + i)).with_id(i);
                let expected = reference.infer(&request).unwrap();
                (serving.submit(request).expect("accepting"), expected)
            })
            .collect();
        for (i, (ticket, expected)) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("served");
            assert_eq!(response.id, i as u64);
            assert_eq!(response.output, expected.output, "served shard output diverged");
        }
        serving.shutdown();
    }
}
