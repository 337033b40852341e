//! Failpoint-driven degradation tests for the shard fleet.
//!
//! Own integration binary: arming a failpoint is process-global, so
//! these tests must not share a process with the ordinary unit tests.
//! Every test holds [`igcn_fail::FailGuard`], which serializes them and
//! tears all points down on drop.
//!
//! The contract under test: a shard panicking mid-request is contained
//! at the fan-out seam — the request fails with a typed error, the
//! fleet reports [`ShardHealth::Down`] / degraded
//! [`BackendHealth`], subsequent requests fail fast instead of
//! panicking again, and [`ShardedEngine::heal`] rebuilds **only** the
//! dead shard, after which outputs are bit-identical to an undamaged
//! fleet (and to a single engine).

use std::sync::Arc;

use igcn_core::{
    Accelerator, BackendHealth, CoreError, ExecConfig, GraphUpdate, IGcnEngine, InferenceRequest,
};
use igcn_fail::FailGuard;
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_shard::{ShardError, ShardHealth, ShardedEngine};

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

/// A shard panic mid-layer is contained: the request fails typed, the
/// fleet turns degraded, later requests fail fast (no second panic),
/// and `heal()` rebuilds the one dead shard back to bit-identity.
#[test]
fn shard_panic_degrades_fleet_and_heal_restores_bit_identity() {
    let guard = FailGuard::setup();
    let (graph, model, weights, x) = setup(21);
    let reference = single(&graph, &model, &weights);
    let mut fleet = ShardedEngine::from_engine(&reference, 3).unwrap();
    assert_eq!(fleet.num_shards(), 3);
    let request = InferenceRequest::new(x).with_id(9);
    let want = reference.infer(&request).unwrap();
    // Report baseline from an undamaged fleet (the report's backend
    // name differs from the single engine's).
    let pristine = ShardedEngine::from_engine(&reference, 3).unwrap();
    let want_report = pristine.infer(&request).unwrap().report;

    // Sequential execution (the default ExecConfig) visits shards in
    // index order, so the 2nd hit of the layer seam is shard 1, layer 0.
    guard.cfg("shard::run_layer", "nth(2):panic").unwrap();
    let err = fleet.infer(&request);
    guard.remove("shard::run_layer");
    match err {
        Err(CoreError::BackendFailed { backend, detail }) => {
            assert_eq!(backend, "shard 1");
            assert!(detail.contains("injected panic"), "detail: {detail}");
        }
        other => panic!("expected BackendFailed for shard 1, got {other:?}"),
    }
    assert_eq!(fleet.down_shards(), vec![1]);
    assert!(matches!(fleet.shard_health()[1], ShardHealth::Down { .. }));
    assert!(matches!(fleet.health(), BackendHealth::Degraded { .. }));

    // Fail-fast: the failpoint is disarmed, but the fleet must refuse
    // to serve through a dead shard rather than risk torn state.
    match fleet.infer(&request) {
        Err(CoreError::BackendFailed { detail, .. }) => {
            assert!(detail.contains("heal()"), "detail: {detail}")
        }
        other => panic!("expected fail-fast BackendFailed, got {other:?}"),
    }

    // Structural updates are refused while degraded, typed.
    match fleet.apply_update(GraphUpdate::add_edges(vec![(0, 1)])) {
        Err(ShardError::ShardFailed { shard: 1, .. }) => {}
        other => panic!("expected ShardFailed(1), got {other:?}"),
    }

    let healed = fleet.heal();
    assert_eq!(healed, vec![1]);
    assert!(fleet.health().is_ready());
    assert!(fleet.down_shards().is_empty());
    let got = fleet.infer(&request).unwrap();
    assert_eq!(got.output, want.output, "post-heal output must be bit-identical");
    assert_eq!(got.report, want_report, "post-heal ExecStats must be identical");
}

/// Containment also holds on the pooled fan-out path, where shards run
/// on worker threads: every panicking shard is recorded (no unwind
/// crosses the pool), and a full heal brings all of them back.
#[test]
fn pooled_fanout_contains_panics_on_worker_threads() {
    let guard = FailGuard::setup();
    let (graph, model, weights, x) = setup(22);
    let reference = single(&graph, &model, &weights);
    let mut fleet = ShardedEngine::from_engine(&reference, 3).unwrap();
    fleet.set_exec_config(ExecConfig::default().with_threads(4));
    let request = InferenceRequest::new(x).with_id(10);
    let want = reference.infer(&request).unwrap();
    let want_report = fleet.infer(&request).unwrap().report;
    assert_eq!(fleet.infer(&request).unwrap().output, want.output, "healthy pooled run");

    // `always` fires on every shard this layer — all three die at once,
    // each on whatever worker thread picked it up.
    guard.cfg("shard::run_layer", "panic").unwrap();
    let err = fleet.infer(&request);
    guard.remove("shard::run_layer");
    assert!(matches!(err, Err(CoreError::BackendFailed { .. })), "got {err:?}");
    assert_eq!(fleet.down_shards(), vec![0, 1, 2], "every shard recorded as down");

    let healed = fleet.heal();
    assert_eq!(healed, vec![0, 1, 2]);
    let got = fleet.infer(&request).unwrap();
    assert_eq!(got.output, want.output);
    assert_eq!(got.report, want_report);
}

/// `rebuild_shard` touches only its target: healthy shards keep their
/// engines (same Arc'd graph), and rebuilding the one dead shard is
/// enough to serve again.
#[test]
fn rebuild_targets_only_the_dead_shard() {
    let guard = FailGuard::setup();
    let (graph, model, weights, x) = setup(23);
    let reference = single(&graph, &model, &weights);
    let mut fleet = ShardedEngine::from_engine(&reference, 4).unwrap();
    let request = InferenceRequest::new(x).with_id(11);
    let want = reference.infer(&request).unwrap();
    let want_report = fleet.infer(&request).unwrap().report;

    guard.cfg("shard::run_layer", "nth(3):panic").unwrap();
    assert!(fleet.infer(&request).is_err());
    guard.remove("shard::run_layer");
    assert_eq!(fleet.down_shards(), vec![2]);

    // The healthy shards' structure is untouched by the rebuild.
    let structure_before = fleet.shard_structure();
    fleet.rebuild_shard(2);
    assert_eq!(fleet.shard_structure(), structure_before);
    assert!(fleet.health().is_ready());
    let got = fleet.infer(&request).unwrap();
    assert_eq!(got.output, want.output);
    assert_eq!(got.report, want_report);
}

/// A clone is an independent fleet: a shard dying in one never fails
/// requests in the other.
#[test]
fn clones_have_independent_health() {
    let guard = FailGuard::setup();
    let (graph, model, weights, x) = setup(24);
    let reference = single(&graph, &model, &weights);
    let fleet = ShardedEngine::from_engine(&reference, 2).unwrap();
    let clone = fleet.clone();
    let request = InferenceRequest::new(x);

    guard.cfg("shard::run_layer", "nth(1):panic").unwrap();
    assert!(fleet.infer(&request).is_err());
    guard.remove("shard::run_layer");
    assert_eq!(fleet.down_shards(), vec![0]);

    assert!(clone.down_shards().is_empty(), "clone must not inherit the failure");
    let got = clone.infer(&request).unwrap();
    assert_eq!(got.output, reference.infer(&request).unwrap().output);
}

/// The advertised failpoint list matches reality.
#[test]
fn advertised_failpoints_actually_fire() {
    let guard = FailGuard::setup();
    let (graph, model, weights, x) = setup(25);
    let reference = single(&graph, &model, &weights);
    let mut fleet = ShardedEngine::from_engine(&reference, 2).unwrap();
    for &point in igcn_shard::FAILPOINTS {
        guard.cfg(point, "panic").unwrap();
    }
    assert!(fleet.infer(&InferenceRequest::new(x)).is_err());
    for &point in igcn_shard::FAILPOINTS {
        assert!(igcn_fail::fired(point) > 0, "{point} never fired");
        guard.remove(point);
    }
    fleet.heal();
    assert!(fleet.health().is_ready());
}
