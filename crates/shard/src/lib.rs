//! # igcn-shard — partitioned multi-engine serving
//!
//! Graphs that exceed one engine's memory shard along the structure
//! islandization already discovered: **whole islands** go to shards,
//! **hubs replicate** into every shard that contacts them (the halo),
//! and the only cross-shard traffic is hub state — exactly the rows
//! the paper's DHUB-PRC already treats as shared. The subsystem:
//!
//! * [`sharder`] — deterministic island→shard assignment minimising
//!   hub replication (the edge cut) under a work-balance cap, plus the
//!   [`ShardingReport`] cut/replication metrics;
//! * [`ShardedEngine`] — K per-shard [`IGcnEngine`]s behind the full
//!   [`Accelerator`] trait, with a deterministic per-layer **halo
//!   exchange** (hub XW broadcast → shard-local islands → global
//!   schedule-order merge) whose outputs and `ExecStats` are
//!   **bit-identical** to a single engine at every shard count and
//!   thread count; [`ShardedEngine::apply_update`] routes structural
//!   changes to the owning shards with an affinity pass that keeps
//!   undisturbed islands in place;
//! * persistence — [`ShardedEngine::save_manifest`] writes one
//!   standard snapshot per shard plus a checksummed
//!   [`ShardManifest`](igcn_store::ShardManifest), and
//!   [`ShardedEngine::from_manifest`] cold-starts the whole fleet with
//!   no locator pass anywhere.
//!
//! [`IGcnEngine`]: igcn_core::IGcnEngine
//! [`Accelerator`]: igcn_core::Accelerator
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
            shard
                .engine()
                .partition()
                .check_invariants(shard.engine().graph())
                .expect("shard partition invariants");
            owned_nodes += shard.num_owned_nodes();
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
            // share the fleet's state pool and its thread pool, and
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
    fn manifest_round_trip_cold_starts_the_fleet() {
        let (graph, model, weights, x) = setup(17);
        let reference = single(&graph, &model, &weights);
        let sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
        let dir = std::env::temp_dir().join(format!("igcn-shard-test-{}", std::process::id()));
        let manifest_path = sharded.save_manifest(&dir, "fleet").unwrap();

        let booted = ShardedEngine::from_manifest(&manifest_path, ExecConfig::default()).unwrap();
        assert_eq!(booted.num_shards(), 2);
        let request = InferenceRequest::new(x).with_id(5);
        let a = reference.infer(&request).unwrap();
        let b = booted.infer(&request).unwrap();
        assert_eq!(a.output, b.output, "fleet cold-start diverged from single engine");
        assert_eq!(b.id, 5);

        // Tampering with a shard snapshot breaks the checksum pairing.
        let shard0 = dir.join("fleet.shard0.snap");
        let mut bytes = std::fs::read(&shard0).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&shard0, &bytes).unwrap();
        assert!(ShardedEngine::from_manifest(&manifest_path, ExecConfig::default()).is_err());
        std::fs::remove_dir_all(&dir).ok();
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
        assert_eq!(owned, sharded.partition().num_island_nodes());
        let lp = sharded.layout().partition();
        for (shard, s) in sharded.shards().iter().zip(&report.shard_structure) {
            assert_eq!(s.islands, shard.islands().len());
            assert_eq!(s.halo_hubs, shard.num_hubs());
            let expected_slots: usize =
                shard.islands().iter().map(|&gi| lp.islands()[gi as usize].hubs.len()).sum();
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
