//! Backend conformance: every `Accelerator` implementation, one graph,
//! one contract.
//!
//! All backends are prepared with the same model on the same small
//! hub-island graph and must (a) answer with the same output shape,
//! (b) agree with the `igcn-gnn` reference forward pass within
//! floating-point tolerance, (c) echo request ids and answer the same
//! request the same way every time, and (d) be `Send + Sync` so they
//! can serve from an `Arc`.

use std::sync::Arc;

use igcn::baselines::{AwbGcn, HyGcn, Platform, PlatformKind, Sigma};
use igcn::core::accel::{Accelerator, InferenceRequest, InferenceResponse};
use igcn::core::{CoreError, CpuReference, EngineParts, ExecConfig, GraphUpdate, IGcnEngine};
use igcn::gnn::{reference_forward, GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::{CsrGraph, SparseFeatures};
use igcn::serve::{ServingConfig, ServingEngine};
use igcn::sim::{HardwareConfig, IGcnAccelerator, SimBackend};

const N: usize = 250;
const FEATURE_DIM: usize = 16;
const CLASSES: usize = 5;

fn test_graph() -> Arc<CsrGraph> {
    let g = HubIslandConfig::new(N, 10).noise_fraction(0.02).generate(31);
    Arc::new(g.graph)
}

fn test_model() -> (GnnModel, ModelWeights) {
    let model = GnnModel::gcn(FEATURE_DIM, 8, CLASSES);
    let weights = ModelWeights::glorot(&model, 5);
    (model, weights)
}

/// Every backend in the workspace, prepared over `graph`; the engine is
/// built with `exec_cfg` so the whole suite can sweep thread counts.
fn all_backends_with(graph: &Arc<CsrGraph>, exec_cfg: ExecConfig) -> Vec<Box<dyn Accelerator>> {
    let hw = HardwareConfig::paper_default();
    let engine = IGcnEngine::builder(Arc::clone(graph))
        .exec_config(exec_cfg)
        .build()
        .expect("conformance graph is loop-free");
    vec![
        Box::new(engine),
        Box::new(CpuReference::new(Arc::clone(graph))),
        Box::new(SimBackend::new(IGcnAccelerator::new(hw), Arc::clone(graph))),
        Box::new(SimBackend::new(AwbGcn::new(hw), Arc::clone(graph))),
        Box::new(SimBackend::new(HyGcn::paper_config(), Arc::clone(graph))),
        Box::new(SimBackend::new(Sigma::paper_config(), Arc::clone(graph))),
        Box::new(SimBackend::new(Platform::new(PlatformKind::PygCpuE5_2680), Arc::clone(graph))),
    ]
}

/// Every backend with the default (sequential) execution configuration.
fn all_backends(graph: &Arc<CsrGraph>) -> Vec<Box<dyn Accelerator>> {
    all_backends_with(graph, ExecConfig::default())
}

#[test]
fn every_backend_agrees_with_the_reference() {
    let graph = test_graph();
    let (model, weights) = test_model();
    let x = SparseFeatures::random(N, FEATURE_DIM, 0.3, 77);
    let expected = reference_forward(&graph, &x, &model, &weights);
    let request = InferenceRequest::new(x).with_id(42);

    let mut names = Vec::new();
    for mut backend in all_backends(&graph) {
        backend.prepare(&model, &weights).expect("conformance weights match");
        let response = backend.infer(&request).expect("prepared backend answers");
        let name = backend.name();
        assert_eq!(response.id, 42, "{name}: request id not echoed");
        assert_eq!(
            (response.output.rows(), response.output.cols()),
            (N, CLASSES),
            "{name}: wrong output shape"
        );
        let diff = response.output.max_abs_diff(&expected);
        assert!(diff < 1e-3, "{name}: diverges from reference by {diff}");
        assert_eq!(response.report.backend, name, "{name}: report names another backend");
        assert!(response.report.total_ops > 0, "{name}: empty cost report");
        names.push(name);
    }
    // The acceptance list: I-GCN, reference, AWB-GCN, HyGCN, SIGMA (+
    // the timing model and a software platform).
    for required in ["I-GCN", "CPU-reference", "AWB-GCN", "HyGCN", "SIGMA"] {
        assert!(
            names.iter().any(|n| n == required),
            "backend {required} missing from the conformance sweep (got {names:?})"
        );
    }
    assert!(names.len() >= 5, "fewer than five backends conform");
}

/// One `infer` per request, in order — how a caller runs several.
fn infer_each(backend: &dyn Accelerator, requests: &[InferenceRequest]) -> Vec<InferenceResponse> {
    requests.iter().map(|r| backend.infer(r).expect("prepared backend answers")).collect()
}

#[test]
fn a_request_loop_is_ordered_and_every_answer_is_repeatable() {
    let graph = test_graph();
    let (model, weights) = test_model();
    let requests: Vec<InferenceRequest> = (0..4)
        .map(|i| {
            InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.25, 300 + i)).with_id(i)
        })
        .collect();
    for mut backend in all_backends(&graph) {
        backend.prepare(&model, &weights).expect("conformance weights match");
        let looped = infer_each(backend.as_ref(), &requests);
        assert_eq!(looped.len(), requests.len(), "{}: answer count", backend.name());
        for (request, response) in requests.iter().zip(&looped) {
            assert_eq!(request.id, response.id, "{}: order lost", backend.name());
            let solo = backend.infer(request).expect("prepared backend answers");
            assert_eq!(
                solo.output,
                response.output,
                "{}: the answer depends on what was asked before it",
                backend.name()
            );
        }
    }
}

#[test]
fn report_does_no_numeric_work_but_prices_the_request() {
    let graph = test_graph();
    let (model, weights) = test_model();
    let request = InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.3, 9));
    for mut backend in all_backends(&graph) {
        backend.prepare(&model, &weights).expect("conformance weights match");
        let report = backend.report(&request).expect("prepared backend prices");
        assert!(report.total_ops > 0, "{}: zero-op report", backend.name());
        assert_eq!(report.backend, backend.name());
    }
}

#[test]
fn a_request_gets_one_report_whichever_door_it_came_through() {
    // `infer` and `report` answer with the engine's one plan, occupancy
    // modelled over `num_threads` workers whichever of them is asked.
    let graph = test_graph();
    let (model, weights) = test_model();
    let requests: Vec<InferenceRequest> = [0.1, 0.4]
        .iter()
        .zip(0..)
        .map(|(&density, id)| {
            InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, density, 40 + id))
                .with_id(id)
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let mut engine = IGcnEngine::builder(Arc::clone(&graph))
            .exec_config(ExecConfig::default().with_threads(threads))
            .build()
            .expect("conformance graph is loop-free");
        engine.prepare(&model, &weights).expect("conformance weights match");
        let ctx = format!("threads={threads}");
        let looped = infer_each(&engine, &requests);
        for (request, response) in requests.iter().zip(&looped) {
            let report = engine.report(request).expect("prepared engine prices");
            assert_eq!(response.report, report, "{ctx}: infer vs report");
            assert_eq!(engine.infer(request).unwrap().report, report, "{ctx}: infer, again");
            assert_eq!(report.num_workers(), threads, "{ctx}: modelled workers");
        }
        assert_ne!(looped[0].report, looped[1].report, "{ctx}: requests differ");
    }
}

#[test]
fn the_plan_follows_every_change_of_what_it_is_a_function_of() {
    // The plan is derived state: whatever last changed the layout, the
    // model or the execution configuration — and on a clone — `report`
    // and `infer().report` are those of an engine freshly built in that
    // state.
    let graph = test_graph();
    let (model, weights) = test_model();
    let x = SparseFeatures::random(N, FEATURE_DIM, 0.3, 19);
    let fresh =
        |graph: &Arc<CsrGraph>, model: &GnnModel, weights: &ModelWeights, exec_cfg: ExecConfig| {
            let mut engine = IGcnEngine::builder(Arc::clone(graph))
                .exec_config(exec_cfg)
                .build()
                .expect("conformance graph is loop-free");
            engine.prepare(model, weights).expect("conformance weights match");
            engine
        };
    let check = |engine: &IGcnEngine, fresh: &IGcnEngine, x: &SparseFeatures, what: &str| {
        let request = InferenceRequest::new(x.clone());
        let expected = fresh.infer(&request).expect("fresh engine answers");
        assert_eq!(fresh.report(&request).unwrap(), expected.report, "{what}: fresh engine");
        // `report` first: it must not depend on an `infer` having run.
        assert_eq!(engine.report(&request).unwrap(), expected.report, "{what}: report");
        let response = engine.infer(&request).expect("engine answers");
        assert_eq!(response.report, expected.report, "{what}: infer().report");
        assert_eq!(response.output, expected.output, "{what}: output");
    };

    // Every step ends in a `check`, so the next one always finds a built
    // plan to replace.
    let mut engine = fresh(&graph, &model, &weights, ExecConfig::default());
    check(&engine, &fresh(&graph, &model, &weights, ExecConfig::default()), &x, "as built");
    let clone = engine.clone();

    // A model of other widths, one with a non-unit self weight (GIN: the
    // windows drop the diagonal bit and the self term is added apart),
    // and back.
    let gin = GnnModel::gin(FEATURE_DIM, 8, CLASSES, 0.3);
    for other in [GnnModel::gcn(FEATURE_DIM, 24, 3), gin, model.clone()] {
        let w = ModelWeights::glorot(&other, 5);
        engine.prepare(&other, &w).expect("weights match");
        let what = format!("after prepare({:?}, {} wide)", other.kind(), other.layers()[0].out_dim);
        check(&engine, &fresh(&graph, &other, &w, ExecConfig::default()), &x, &what);
    }

    for exec_cfg in [ExecConfig::default().with_threads(4), ExecConfig::default()] {
        engine.set_exec_config(exec_cfg);
        let what = format!("after set_exec_config({exec_cfg:?})");
        check(&engine, &fresh(&graph, &model, &weights, exec_cfg), &x, &what);
    }

    let hub = engine.partition().hubs()[0];
    let update = GraphUpdate::add_edges(vec![(N as u32, hub), (N as u32 + 1, N as u32)])
        .with_num_nodes(N + 2);
    engine.apply_update(update).expect("update applies");
    // An incremental partition is valid but not the cold one, so the
    // fresh engine in the updated state is assembled from the updated
    // engine's own structure: same layout, empty plan.
    let mut rebuilt = IGcnEngine::builder(engine.graph_arc())
        .build_from_parts(EngineParts {
            partition: engine.partition().clone(),
            locator_stats: engine.locator_stats().clone(),
            layout: engine.layout_arc(),
        })
        .expect("the engine's own parts");
    rebuilt.prepare(&model, &weights).expect("conformance weights match");
    let grown = SparseFeatures::random(N + 2, FEATURE_DIM, 0.3, 20);
    check(&engine, &rebuilt, &grown, "after apply_update");

    // The clone kept the old graph, and with it the plan it shared.
    check(&clone, &fresh(&graph, &model, &weights, ExecConfig::default()), &x, "clone");
}

#[test]
fn a_request_enters_the_statistics_through_two_integers() {
    let graph = test_graph();
    let (model, weights) = test_model();
    let out_dim = model.layers()[0].out_dim as u64;
    let sparse = SparseFeatures::random(N, FEATURE_DIM, 0.15, 51);
    // The same sparsity pattern with other values.
    let revalued = SparseFeatures::from_raw_parts(
        N,
        FEATURE_DIM,
        sparse.row_ptr().to_vec(),
        sparse.col_idx().to_vec(),
        sparse.values().iter().map(|v| 1.0 - v * 0.5).collect(),
    )
    .expect("same structure");
    // Other row lengths — dense enough that some rows switch to the
    // dense row encoding (8 bytes a non-zero against 4 a column).
    let dense = SparseFeatures::random(N, FEATURE_DIM, 0.7, 52);

    let engine =
        IGcnEngine::builder(Arc::clone(&graph)).build().expect("conformance graph is loop-free");
    let base = engine.account(&sparse, &model).expect("shapes match");
    assert_eq!(engine.run(&sparse, &model, &weights).unwrap().1, base, "account == run");
    assert_eq!(engine.account(&revalued, &model).unwrap(), base, "values do not enter");

    let other = engine.account(&dense, &model).expect("shapes match");
    assert_eq!(engine.run(&dense, &model, &weights).unwrap().1, other, "account == run");
    for (x, stats) in [(&sparse, &base), (&dense, &other)] {
        let row_bytes = |v: u32| {
            let nnz = x.row_nnz(v.into()) as u64;
            (nnz * 8).min(FEATURE_DIM as u64 * 4)
        };
        let layer = &stats.layers[0];
        assert_eq!(layer.combination_ops.macs, x.nnz() as u64 * out_dim);
        assert_eq!(layer.traffic.feature_read_bytes, (0..N as u32).map(row_bytes).sum::<u64>());
    }
    // Nothing else moved: carry the two integers over and the
    // statistics are equal.
    let mut carried = other.clone();
    carried.layers[0].combination_ops.macs = base.layers[0].combination_ops.macs;
    carried.layers[0].traffic.feature_read_bytes = base.layers[0].traffic.feature_read_bytes;
    assert_ne!(other, base, "the requests differ");
    assert_eq!(carried, base, "only the two integers differ");
}

#[test]
fn unprepared_backends_refuse_and_bad_shapes_are_errors() {
    let graph = test_graph();
    let (model, weights) = test_model();
    let good = InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.3, 1));
    let wrong_rows = InferenceRequest::new(SparseFeatures::random(N / 2, FEATURE_DIM, 0.3, 1));
    let wrong_cols = InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM + 3, 0.3, 1));
    for mut backend in all_backends(&graph) {
        let name = backend.name();
        assert!(
            matches!(backend.infer(&good), Err(CoreError::NotPrepared { .. })),
            "{name}: must refuse before prepare"
        );
        backend.prepare(&model, &weights).expect("conformance weights match");
        assert!(
            matches!(backend.infer(&wrong_rows), Err(CoreError::ShapeMismatch { .. })),
            "{name}: must reject wrong feature rows"
        );
        assert!(
            matches!(backend.infer(&wrong_cols), Err(CoreError::ShapeMismatch { .. })),
            "{name}: must reject wrong feature width"
        );
    }
}

#[test]
fn thread_count_never_changes_any_backend_output() {
    // The parallel-execution determinism contract: for every backend,
    // the same graph + weights + requests produce bit-identical outputs
    // whether the I-GCN engine runs with 1, 2 or 8 threads (the other
    // backends have no thread knob and must simply stay identical).
    let graph = test_graph();
    let (model, weights) = test_model();
    let requests: Vec<InferenceRequest> = (0..3)
        .map(|i| {
            InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.3, 600 + i)).with_id(i)
        })
        .collect();

    let mut baseline: Option<Vec<Vec<igcn::linalg::DenseMatrix>>> = None;
    for threads in [1usize, 2, 8] {
        let exec_cfg = ExecConfig::default().with_threads(threads);
        let mut per_backend = Vec::new();
        for mut backend in all_backends_with(&graph, exec_cfg) {
            backend.prepare(&model, &weights).expect("conformance weights match");
            let solo = backend.infer(&requests[0]).expect("prepared backend answers");
            let looped = infer_each(backend.as_ref(), &requests);
            assert_eq!(
                solo.output,
                looped[0].output,
                "{}: a repeated request diverges at {threads} threads",
                backend.name()
            );
            per_backend.push(looped.into_iter().map(|r| r.output).collect::<Vec<_>>());
        }
        match &baseline {
            None => baseline = Some(per_backend),
            Some(reference) => {
                for (b, (exp, got)) in reference.iter().zip(&per_backend).enumerate() {
                    for (i, (e, g)) in exp.iter().zip(got).enumerate() {
                        assert_eq!(
                            e, g,
                            "backend #{b} request {i}: output changed at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn hot_path_thread_sweep_is_bit_identical() {
    // The physical schedule-order layout is the execution path (the
    // hotpath unit tests hold each layer against the dense reference and
    // the statistics oracle). Outputs AND the layer/locator
    // statistics must be invariant at 1, 2 and 8 threads on both the
    // direct (`run`) and serving (`infer`) paths, and the *full*
    // ExecStats (occupancy included) must be deterministic across
    // repeated runs at each fixed thread count.
    let graph = test_graph();
    let (model, weights) = test_model();
    let x = SparseFeatures::random(N, FEATURE_DIM, 0.3, 91);
    let requests: Vec<InferenceRequest> = (0..3)
        .map(|i| {
            InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.25, 700 + i)).with_id(i)
        })
        .collect();

    let mut output_baseline: Option<(igcn::linalg::DenseMatrix, Vec<igcn::linalg::DenseMatrix>)> =
        None;
    let mut layer_stats_baseline: Option<igcn::core::ExecStats> = None;
    for threads in [1usize, 2, 8] {
        let exec_cfg = ExecConfig::default().with_threads(threads);
        let mut engine = IGcnEngine::builder(Arc::clone(&graph))
            .exec_config(exec_cfg)
            .build()
            .expect("conformance graph is loop-free");
        engine.prepare(&model, &weights).expect("conformance weights match");
        let ctx = format!("threads={threads}");
        let (out, stats) = engine.run(&x, &model, &weights).expect("direct run");
        let (out2, stats2) = engine.run(&x, &model, &weights).expect("repeat run");
        assert_eq!(out, out2, "{ctx}: repeated run output diverged");
        assert_eq!(stats, stats2, "{ctx}: repeated run ExecStats diverged");
        let served: Vec<_> = infer_each(&engine, &requests).into_iter().map(|r| r.output).collect();
        match &output_baseline {
            None => output_baseline = Some((out, served)),
            Some((ref_out, ref_served)) => {
                assert_eq!(&out, ref_out, "{ctx}: run output diverged");
                assert_eq!(&served, ref_served, "{ctx}: served outputs diverged");
            }
        }
        match &layer_stats_baseline {
            None => layer_stats_baseline = Some(stats),
            Some(reference) => {
                assert_eq!(stats.layers, reference.layers, "{ctx}: layer stats diverged");
                assert_eq!(stats.locator, reference.locator, "{ctx}: locator stats diverged");
            }
        }
    }
}

#[test]
fn simd_scalar_fallback_sweep_is_bit_identical() {
    // The PR-7 contract: the SIMD kernels (AVX2/NEON when detected) and
    // the portable scalar fallback produce bit-identical outputs AND
    // `ExecStats`, across thread counts and shard counts. The fallback
    // is pinned at runtime with the `igcn::simd::force_scalar` test
    // hook; the flag is process-global, which is safe to flip here
    // precisely *because* of the equality this test asserts — any other
    // test running concurrently computes the same bits either way.
    use igcn::shard::ShardedEngine;

    struct ScalarGuard;
    impl ScalarGuard {
        fn pin() -> Self {
            igcn::simd::force_scalar(true);
            ScalarGuard
        }
    }
    impl Drop for ScalarGuard {
        fn drop(&mut self) {
            igcn::simd::force_scalar(false);
        }
    }

    let graph = test_graph();
    let (model, weights) = test_model();
    let x = SparseFeatures::random(N, FEATURE_DIM, 0.3, 83);
    const SHARDS: [usize; 3] = [1, 2, 4];

    for threads in [1usize, 2, 8] {
        let exec_cfg = ExecConfig::default().with_threads(threads);
        let mut engine =
            IGcnEngine::builder(Arc::clone(&graph)).exec_config(exec_cfg).build().unwrap();
        engine.prepare(&model, &weights).unwrap();

        // Native (detected) backend reference, single-engine + sharded.
        let (native_out, native_stats) = engine.run(&x, &model, &weights).unwrap();
        let native_sharded: Vec<_> = SHARDS
            .iter()
            .map(|&s| {
                ShardedEngine::from_engine(&engine, s)
                    .expect("conformance graph shards")
                    .run(&x, &model, &weights)
                    .unwrap()
            })
            .collect();

        // Same engine, scalar kernels pinned.
        let _guard = ScalarGuard::pin();
        assert!(igcn::simd::scalar_forced(), "test hook did not engage");
        let ctx = format!("threads={threads}");
        let (scalar_out, scalar_stats) = engine.run(&x, &model, &weights).unwrap();
        assert_eq!(scalar_out, native_out, "{ctx}: scalar fallback changed the output");
        assert_eq!(scalar_stats, native_stats, "{ctx}: scalar fallback changed ExecStats");
        for (&shards, native) in SHARDS.iter().zip(&native_sharded) {
            let sctx = format!("{ctx} shards={shards}");
            let sharded = ShardedEngine::from_engine(&engine, shards).unwrap();
            let (out, stats) = sharded.run(&x, &model, &weights).unwrap();
            assert_eq!(out, native.0, "{sctx}: scalar fallback changed the output");
            assert_eq!(stats, native.1, "{sctx}: scalar fallback changed ExecStats");
        }
    }
}

#[test]
fn layout_survives_graph_updates() {
    // `apply_update` recomposes the physical layout; the post-update
    // engine must still agree with the software reference on the
    // updated graph, stay bit-identical across thread counts, and keep
    // its partition invariants.
    let graph = test_graph();
    let (model, weights) = test_model();
    let mut engine = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
    engine.prepare(&model, &weights).unwrap();

    let n = graph.num_nodes() as u32;
    let update =
        igcn::core::GraphUpdate::add_edges(vec![(n, 0), (n + 1, n)]).with_num_nodes(n as usize + 2);
    engine.apply_update(update).unwrap();

    let x = SparseFeatures::random(n as usize + 2, FEATURE_DIM, 0.3, 17);
    let diff = engine.verify(&x, &model, &weights).unwrap();
    assert!(diff < 1e-3, "post-update engine diverges from reference by {diff}");
    let (out1, stats1) = engine.run(&x, &model, &weights).unwrap();
    engine.set_exec_config(ExecConfig::default().with_threads(4));
    let (out4, stats4) = engine.run(&x, &model, &weights).unwrap();
    assert_eq!(out1, out4, "post-update outputs diverged across thread counts");
    assert_eq!(stats1.layers, stats4.layers, "post-update layer stats diverged");
    assert_eq!(stats1.locator, stats4.locator, "post-update locator stats diverged");
    let layout = engine.layout().original_partition();
    assert_eq!(&layout, engine.partition(), "the layout gives its partition back");
    layout.check_invariants(engine.graph()).unwrap();
}

#[test]
fn snapshot_round_trip_is_bit_identical_across_threads() {
    // The PR-4 contract: an engine loaded via `from_snapshot` is the
    // *same* engine — outputs AND the complete `ExecStats` are
    // bit-identical to the cold-built original at every thread count,
    // and the equality must survive WAL-replayed `GraphUpdate`s. GIN
    // adds its self term apart, so its windows drop the diagonal bit
    // the stored bitmaps hold: it runs as one more input.
    let graph = test_graph();
    let (model, weights) = test_model();
    let gin = GnnModel::gin(FEATURE_DIM, 8, CLASSES, 0.3);
    let gin_weights = ModelWeights::glorot(&gin, 6);
    let x = SparseFeatures::random(N, FEATURE_DIM, 0.3, 55);
    let requests: Vec<InferenceRequest> = (0..3)
        .map(|i| {
            InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.25, 800 + i)).with_id(i)
        })
        .collect();

    // One snapshot captured from a plainly-configured cold engine: the
    // exec config is a runtime knob and must not be baked into the
    // image.
    let mut cold_origin = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
    cold_origin.prepare(&model, &weights).unwrap();
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("igcn-conformance-{}.snap", std::process::id()));
    igcn::store::Snapshot::capture(&cold_origin).write(&snap_path).unwrap();

    for threads in [1usize, 2, 8] {
        let exec_cfg = ExecConfig::default().with_threads(threads);
        let mut cold =
            IGcnEngine::builder(Arc::clone(&graph)).exec_config(exec_cfg).build().unwrap();
        cold.prepare(&model, &weights).unwrap();
        let warm = igcn::store::from_snapshot(&snap_path).exec_config(exec_cfg).build().unwrap();
        let ctx = format!("threads={threads}");

        for (m, w) in [(&model, &weights), (&gin, &gin_weights)] {
            let (cold_out, cold_stats) = cold.run(&x, m, w).unwrap();
            let (warm_out, warm_stats) = warm.run(&x, m, w).unwrap();
            let kind = m.kind();
            assert_eq!(warm_out, cold_out, "{ctx} {kind:?}: warm run output diverged");
            assert_eq!(warm_stats, cold_stats, "{ctx} {kind:?}: warm run stats diverged");
        }

        let cold_served = infer_each(&cold, &requests);
        let warm_served = infer_each(&warm, &requests);
        for (a, b) in cold_served.iter().zip(&warm_served) {
            assert_eq!(a.id, b.id);
            assert_eq!(b.output, a.output, "{ctx}: warm served output diverged");
            assert_eq!(b.report, a.report, "{ctx}: warm served report diverged");
        }
    }
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn snapshot_boot_after_wal_replay_matches_live_engine() {
    // EngineStore round trip: snapshot + WAL-first updates, then a boot
    // that replays the log must serve bit-identically to the live
    // engine that never restarted — at 1 and 8 threads.
    let graph = test_graph();
    let (model, weights) = test_model();
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("igcn-conformance-wal-{}.snap", std::process::id()));
    let store = igcn::store::EngineStore::at(&snap_path);

    let mut live = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
    live.prepare(&model, &weights).unwrap();
    store.checkpoint(&live).unwrap();

    // Structural churn through the WAL: growth onto a hub, an edge
    // between existing nodes, and a removal that dissolves an island.
    let n = graph.num_nodes() as u32;
    let hub = live.partition().hubs()[0];
    store
        .apply_update(
            &mut live,
            igcn::core::GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)])
                .with_num_nodes(n as usize + 2),
        )
        .unwrap();
    let island = live.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
    let a = island.nodes[0];
    let b = *live
        .graph()
        .neighbors(igcn::graph::NodeId::new(a))
        .iter()
        .find(|&&nb| nb != a)
        .expect("island node has a neighbor");
    store.apply_update(&mut live, igcn::core::GraphUpdate::remove_edges(vec![(a, b)])).unwrap();

    let x = SparseFeatures::random(live.graph().num_nodes(), FEATURE_DIM, 0.3, 77);
    let (live_out, live_stats) = live.run(&x, &model, &weights).unwrap();
    for threads in [1usize, 8] {
        let exec_cfg = ExecConfig::default().with_threads(threads);
        let boot = store.boot(exec_cfg).unwrap();
        assert_eq!(boot.replayed_updates, 2);
        assert!(boot.prepared, "snapshot carried the prepared model");
        let ctx = format!("threads={threads}");
        let (boot_out, boot_stats) = boot.engine.run(&x, &model, &weights).unwrap();
        assert_eq!(boot_out, live_out, "{ctx}: booted output diverged after WAL replay");
        // The occupancy model reflects the configured worker count
        // by design; everything else is invariant across the sweep.
        assert_eq!(boot_stats.layers, live_stats.layers, "{ctx}: layer stats diverged");
        assert_eq!(boot_stats.locator, live_stats.locator, "{ctx}: locator stats diverged");
        if threads == 1 {
            assert_eq!(boot_stats, live_stats, "{ctx}: full stats diverged at live config");
        }
    }
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(store.wal_path()).ok();
}

#[test]
fn sharded_engine_is_bit_identical_across_shards_and_threads() {
    // The PR-5 contract: a `ShardedEngine` is a *distributed execution
    // of the same computation DAG* — outputs AND the complete
    // `ExecStats` are bit-identical to the single-engine reference for
    // {1, 2, 4} shards at every tested thread count, on a citation bin
    // and a power-law bin, including after fleet `apply_update`s and
    // after the fleet persists as its coordinator snapshot and boots
    // again by re-sharding the warm engine.
    use igcn::shard::ShardedEngine;

    let cora = igcn::graph::datasets::Dataset::Cora.generate_scaled(0.12, 41);
    let pl_n = 900;
    let powerlaw = igcn::graph::generate::barabasi_albert(pl_n, 6, 42);
    let bins: Vec<(&str, Arc<CsrGraph>, usize)> = vec![
        ("citation", Arc::new(cora.graph), cora.features.num_cols()),
        ("powerlaw", Arc::new(powerlaw), 24),
    ];

    for (bin, graph, feature_dim) in bins {
        let n = graph.num_nodes();
        let model = GnnModel::gcn(feature_dim, 8, 4);
        let weights = ModelWeights::glorot(&model, 7);
        let x = SparseFeatures::random(n, feature_dim, 0.05, 99);
        let requests: Vec<InferenceRequest> = (0..2)
            .map(|i| {
                InferenceRequest::new(SparseFeatures::random(n, feature_dim, 0.05, 900 + i))
                    .with_id(i)
            })
            .collect();

        for threads in [1usize, 2] {
            let exec_cfg = ExecConfig::default().with_threads(threads);
            let mut reference = IGcnEngine::builder(Arc::clone(&graph))
                .exec_config(exec_cfg)
                .build()
                .expect("conformance bins are loop-free");
            reference.prepare(&model, &weights).unwrap();
            let (ref_out, ref_stats) = reference.run(&x, &model, &weights).unwrap();
            let ref_served = infer_each(&reference, &requests);

            for shards in [1usize, 2, 4] {
                let ctx = format!("{bin} shards={shards} threads={threads}");
                let sharded =
                    ShardedEngine::from_engine(&reference, shards).expect("conformance bins shard");
                assert_eq!(sharded.num_shards(), shards, "{ctx}");
                let (out, stats) = sharded.run(&x, &model, &weights).unwrap();
                assert_eq!(out, ref_out, "{ctx}: run output diverged");
                assert_eq!(stats, ref_stats, "{ctx}: run stats diverged");
                let served = infer_each(&sharded, &requests);
                for (a, b) in ref_served.iter().zip(&served) {
                    assert_eq!(a.id, b.id, "{ctx}");
                    assert_eq!(b.output, a.output, "{ctx}: served output diverged");
                }
            }
        }

        // Routed updates: growth onto a hub plus an island-dissolving
        // removal, applied through both paths, then the sweep again.
        let mut reference = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
        reference.prepare(&model, &weights).unwrap();
        let mut sharded = ShardedEngine::from_engine(&reference, 2).unwrap();
        let n0 = reference.graph().num_nodes() as u32;
        let hub = reference.partition().hubs()[0];
        let growth = igcn::core::GraphUpdate::add_edges(vec![(n0, hub), (n0 + 1, n0)])
            .with_num_nodes(n0 as usize + 2);
        reference.apply_update(growth.clone()).unwrap();
        sharded.apply_update(growth).unwrap();
        // Any island node with an incident edge works (the islands of
        // sparse citation bins can all be small, so don't assume a
        // 2-node island exists).
        let (a, b) = reference
            .partition()
            .islands()
            .iter()
            .flat_map(|i| i.nodes.iter())
            .find_map(|&v| {
                reference
                    .graph()
                    .neighbors(igcn::graph::NodeId::new(v))
                    .iter()
                    .find(|&&nb| nb != v)
                    .map(|&nb| (v, nb))
            })
            .expect("some island node has a neighbor");
        let removal = igcn::core::GraphUpdate::remove_edges(vec![(a, b)]);
        reference.apply_update(removal.clone()).unwrap();
        sharded.apply_update(removal).unwrap();

        let x2 = SparseFeatures::random(reference.graph().num_nodes(), feature_dim, 0.05, 101);
        let (ref_out, ref_stats) = reference.run(&x2, &model, &weights).unwrap();
        let (out, stats) = sharded.run(&x2, &model, &weights).unwrap();
        assert_eq!(out, ref_out, "{bin}: post-update output diverged");
        assert_eq!(stats, ref_stats, "{bin}: post-update stats diverged");

        // Fleet-snapshot round trip: the updated fleet persists as its
        // coordinator's snapshot and boots again by re-sharding the warm
        // engine, at every shard count. The reboot recomputes the
        // island→shard assignment without the updates' affinity, which
        // no output or statistic may see.
        let snap_path = std::env::temp_dir()
            .join(format!("igcn-conformance-shard-{}-{bin}.snap", std::process::id()));
        sharded.snapshot().write(&snap_path).unwrap();
        for threads in [1usize, 2] {
            let warm = igcn::store::Snapshot::read(&snap_path)
                .unwrap()
                .warm_engine(ExecConfig::default().with_threads(threads))
                .unwrap();
            let (warm_out, warm_stats) = warm.run(&x2, &model, &weights).unwrap();
            assert_eq!(warm_out, ref_out, "{bin} threads={threads}: warm engine diverged");
            for shards in [1usize, 2, 4] {
                let booted = ShardedEngine::from_engine(&warm, shards).unwrap();
                let (out, stats) = booted.run(&x2, &model, &weights).unwrap();
                let ctx = format!("{bin} booted shards={shards} threads={threads}");
                assert_eq!(out, ref_out, "{ctx}: output diverged after snapshot round trip");
                assert_eq!(stats, warm_stats, "{ctx}: stats diverged from the single engine");
                if threads == 1 {
                    assert_eq!(stats, ref_stats, "{ctx}: stats diverged from the live fleet");
                }
            }
        }
        std::fs::remove_file(&snap_path).ok();
    }
}

#[test]
fn serving_engine_is_order_stable_and_shuts_down_cleanly() {
    // Concurrent submitters hammer one ServingEngine; every ticket must
    // come back with its own request's id and the exact output a direct
    // infer produces, then shutdown must drain cleanly.
    let graph = test_graph();
    let (model, weights) = test_model();
    let mut engine = IGcnEngine::builder(Arc::clone(&graph))
        .exec_config(ExecConfig::default().with_threads(2))
        .build()
        .unwrap();
    engine.prepare(&model, &weights).unwrap();
    let backend: Arc<dyn Accelerator> = Arc::new(engine);
    let serving = Arc::new(ServingEngine::start(
        Arc::clone(&backend),
        ServingConfig::default().with_workers(2),
    ));

    let submitters: Vec<_> = (0..4u64)
        .map(|t| {
            let serving = Arc::clone(&serving);
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || {
                for i in 0..5u64 {
                    let id = t * 100 + i;
                    let request =
                        InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.25, id))
                            .with_id(id);
                    let expected = backend.infer(&request).expect("direct infer");
                    let response = serving
                        .submit(request)
                        .expect("accepting while running")
                        .wait()
                        .expect("served");
                    assert_eq!(response.id, id, "response correlated to the wrong request");
                    assert_eq!(response.output, expected.output, "served output diverges");
                }
            })
        })
        .collect();
    for handle in submitters {
        handle.join().expect("submitter panicked");
    }
    assert_eq!(serving.completed(), 20);
    assert_eq!(serving.pending(), 0);
    let serving = Arc::into_inner(serving).expect("all submitters dropped their handles");
    serving.shutdown(); // must join without hanging
}

#[test]
fn backends_are_send_sync_and_shareable() {
    // Compile-time assertions: the acceptance criterion that the owned
    // engine (and every other backend) can cross threads inside an Arc.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IGcnEngine>();
    assert_send_sync::<CpuReference>();
    assert_send_sync::<SimBackend<IGcnAccelerator>>();
    assert_send_sync::<SimBackend<AwbGcn>>();
    assert_send_sync::<SimBackend<HyGcn>>();
    assert_send_sync::<SimBackend<Sigma>>();
    assert_send_sync::<SimBackend<Platform>>();
    assert_send_sync::<Box<dyn Accelerator>>();

    // And a runtime smoke test: serve the same prepared engine from two
    // threads through an Arc.
    let graph = test_graph();
    let (model, weights) = test_model();
    let mut engine = IGcnEngine::builder(Arc::clone(&graph)).build().unwrap();
    engine.prepare(&model, &weights).unwrap();
    let shared: Arc<dyn Accelerator> = Arc::new(engine);
    let handles: Vec<_> = (0..2)
        .map(|t| {
            let backend = Arc::clone(&shared);
            std::thread::spawn(move || {
                let request =
                    InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.3, 50 + t))
                        .with_id(t);
                let response = backend.infer(&request).expect("shared engine serves");
                assert_eq!(response.id, t);
                assert_eq!(response.output.rows(), N);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("serving thread panicked");
    }
}
