//! Seeded failpoint chaos campaigns over the durability and fleet
//! layers, plus the disabled-failpoint overhead probe.
//!
//! ```text
//! chaos_tool [--quick] [--seed N]
//! ```
//!
//! Three campaigns run back to back and every one must end with the
//! system fully recovered, or the tool panics (non-zero exit — the CI
//! contract):
//!
//! * **store** — cycles every registered `igcn_store` failpoint
//!   (`igcn_store::FAILPOINTS`) through its reachable fault plans:
//!   WAL appends that die or tear mid-record, checkpoints that die
//!   before/after the publish rename, snapshot reads that fail or
//!   serve a torn prefix. After every injection the store is booted
//!   like a crash-restarted serving node and its engine must be
//!   **bit-identical** (outputs *and* `ExecStats`) to a shadow engine
//!   that holds exactly the acknowledged updates — `apply_update`
//!   returning `Ok` is the acknowledgement line; nothing behind it may
//!   be lost, nothing in front of it may survive.
//! * **shard** — arms `shard::run_layer` (`igcn_shard::FAILPOINTS`)
//!   with rotating panic/delay schedules against a 3-shard fleet, on
//!   both the sequential and the pooled fan-out path. Every kill must
//!   be contained (typed `BackendFailed`, degraded health, fail-fast),
//!   `heal()` must rebuild exactly the dead shards, and the healed
//!   fleet must match the pristine fleet bit for bit.
//! * **overhead** — measures `igcn_fail::eval` with no point armed
//!   (the production configuration) and asserts it stays under 1 µs
//!   per call; the armed-registry cost is printed alongside for
//!   scale.
//!
//! Both campaigns also reconcile the telemetry layer against their own
//! fault tallies: `shard_contained_panics` must tick once per shard
//! observed Down, `store_rejected_updates` once per observed engine
//! rejection, and no registry counter may go backwards across a
//! `heal()` or a recovery boot.
//!
//! The summary goes to stdout; nothing is written.

use std::path::PathBuf;
use std::time::Instant;

use igcn_core::{
    Accelerator, BackendHealth, CoreError, ExecConfig, GraphUpdate, IGcnEngine, InferenceRequest,
};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_shard::ShardedEngine;
use igcn_store::{EngineStore, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 12;

struct Args {
    quick: bool,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args { quick: false, seed: 7 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--seed" => {
                let value = it.next().and_then(|v| v.parse().ok());
                let Some(seed) = value else {
                    eprintln!("--seed needs an integer value");
                    std::process::exit(2);
                };
                args.seed = seed;
            }
            other => {
                eprintln!("unknown flag {other:?}; usage: chaos_tool [--quick] [--seed N]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Tally of one campaign: how many faults actually fired and how many
/// recovery cycles (boot / heal + bit-identity check) were proven.
#[derive(Default)]
struct Tally {
    rounds: u64,
    injections: u64,
    recoveries: u64,
}

fn engine_with_model(n: usize, seed: u64) -> IGcnEngine {
    let g = HubIslandConfig::new(n, 10).noise_fraction(0.03).generate(seed);
    let mut engine = IGcnEngine::builder(g.graph).build().expect("generated graphs are loop-free");
    let model = GnnModel::gcn(DIM, 9, 5);
    let weights = ModelWeights::glorot(&model, seed + 1);
    engine.prepare(&model, &weights).expect("weights match the model");
    engine
}

/// Asserts no registry counter went backwards since `before` — the
/// telemetry contract across recovery: heal/boot may reset engines,
/// never metrics.
fn assert_counters_monotonic(before: &[(String, u64)], context: &str) {
    let now = igcn_obs::snapshot().counters;
    for (name, was) in before {
        let is = now.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        assert!(is >= *was, "{context}: counter {name} went backwards ({was} -> {is})");
    }
}

fn assert_bit_identical(a: &IGcnEngine, b: &IGcnEngine, seed: u64, context: &str) {
    assert_eq!(a.graph().num_nodes(), b.graph().num_nodes(), "{context}: node counts diverged");
    let req = InferenceRequest::new(SparseFeatures::random(a.graph().num_nodes(), DIM, 0.3, seed));
    let ra = a.infer(&req).expect("recovered engine serves");
    let rb = b.infer(&req).expect("shadow engine serves");
    assert_eq!(ra.output, rb.output, "{context}: recovered output is not bit-identical");
    assert_eq!(ra.report, rb.report, "{context}: recovered ExecStats diverged");
}

/// What the store campaign does while a failpoint is armed.
#[derive(Clone, Copy, Debug)]
enum StoreOp {
    /// One WAL-first `apply_update` (may or may not be acknowledged).
    Churn,
    /// One `checkpoint` (rotate + publish + WAL reset).
    Checkpoint,
    /// One crash-restart `boot`.
    Boot,
    /// Two clean checkpoints, then a faulted `boot`: the WAL is empty
    /// and both generations hold the same state, so even a boot that
    /// quarantines a *healthy-but-torn-read* current snapshot and
    /// falls back to the previous generation loses nothing.
    BootAfterDoubleCheckpoint,
}

/// Every (failpoint, spec pattern, operation) plan the store campaign
/// cycles through. `{K}` is replaced with a seeded tear offset; `{W}`
/// with one capped below the 12-byte WAL record header — tearing at or
/// past the record's end writes the whole record durably before the
/// error, which is the genuinely ambiguous crashed-after-commit window
/// and correctly replays at boot.
const STORE_PLANS: &[(&str, &str, StoreOp)] = &[
    ("store::wal::append", "once:return", StoreOp::Churn),
    ("store::wal::append", "once:truncate({W})", StoreOp::Churn),
    ("store::io::write", "once:return", StoreOp::Checkpoint),
    ("store::io::write", "once:truncate({K})", StoreOp::Checkpoint),
    ("store::snapshot::publish", "once:return", StoreOp::Checkpoint),
    ("store::snapshot::publish", "once:truncate({K})", StoreOp::Checkpoint),
    ("store::checkpoint::rotated", "once:return", StoreOp::Checkpoint),
    ("store::io::rename", "once:return", StoreOp::Checkpoint),
    ("store::wal::reset", "once:return", StoreOp::Checkpoint),
    ("store::io::read", "once:return", StoreOp::Boot),
    ("store::io::read", "once:truncate({K})", StoreOp::BootAfterDoubleCheckpoint),
];

/// Runs the store campaign until `target` faults have fired. Every
/// round injects one fault plan, then proves recovery: a crash-restart
/// boot that is bit-identical to the shadow engine with exactly the
/// acknowledged updates.
fn store_campaign(dir: &std::path::Path, seed: u64, target: u64) -> Tally {
    // Make sure the plan table and the crate's registry agree — a new
    // failpoint must be added to the campaign, not silently skipped.
    for point in igcn_store::FAILPOINTS {
        assert!(
            STORE_PLANS.iter().any(|(name, _, _)| name == point),
            "store failpoint {point} has no chaos plan"
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let store = EngineStore::at(dir.join("chaos.snap"));
    let mut engine = engine_with_model(220, seed);
    let mut shadow = engine_with_model(220, seed);
    store.checkpoint(&engine).expect("initial checkpoint");
    // Telemetry reconciliation: every engine rejection the campaign
    // observes must tick `store_rejected_updates` exactly once and leave
    // the log as it was (injected I/O faults fail after the engine's
    // structural step but are no rejection, so they must not tick it).
    let rejections_before = igcn_obs::counter("store_rejected_updates").get();
    let mut observed_rejections: u64 = 0;

    let mut tally = Tally::default();
    let mut plan_idx = 0usize;
    while tally.injections < target {
        assert!(
            tally.rounds < target * 8,
            "store campaign stalled: {} injections after {} rounds",
            tally.injections,
            tally.rounds
        );
        let (point, spec_pattern, op) = STORE_PLANS[plan_idx % STORE_PLANS.len()];
        plan_idx += 1;
        tally.rounds += 1;

        // One acknowledged update per round keeps the state (and the
        // WAL the faults land on) evolving.
        let update = next_update(&engine, &mut rng);
        store.apply_update(&mut engine, update.clone()).expect("unarmed update is acknowledged");
        shadow.apply_update(update).expect("shadow applies the acknowledged update");

        let spec = spec_pattern
            .replace("{K}", &rng.gen_range(0u64..96).to_string())
            .replace("{W}", &rng.gen_range(0u64..12).to_string());
        if matches!(op, StoreOp::BootAfterDoubleCheckpoint) {
            // Fold the WAL twice so both generations carry this exact
            // state before the torn-read boot quarantines one of them.
            store.checkpoint(&engine).expect("pre-fault checkpoint");
            store.checkpoint(&engine).expect("pre-fault checkpoint");
        }
        igcn_fail::cfg(point, &spec).expect("plan specs parse");
        match op {
            StoreOp::Churn => {
                let update = next_update(&engine, &mut rng);
                let log_bytes = std::fs::metadata(store.wal_path()).map(|m| m.len()).ok();
                match store.apply_update(&mut engine, update.clone()) {
                    // Acknowledged despite the armed point (e.g. the
                    // fault was spent elsewhere): the shadow keeps it.
                    Ok(_) => shadow.apply_update(update).map(|_| ()).expect("shadow applies"),
                    // Engine rejection: nothing reached the log.
                    Err(StoreError::Core(_)) => {
                        observed_rejections += 1;
                        assert_eq!(
                            std::fs::metadata(store.wal_path()).map(|m| m.len()).ok(),
                            log_bytes,
                            "a rejected update must not touch the log"
                        );
                    }
                    // Injected I/O fault: died before the engine commit.
                    Err(_) => {}
                }
            }
            StoreOp::Checkpoint => {
                // Err is the injection surfacing as a typed StoreError;
                // recovery below proves nothing acknowledged was lost.
                let _ = store.checkpoint(&engine);
            }
            StoreOp::Boot | StoreOp::BootAfterDoubleCheckpoint => {
                let _ = store.boot(ExecConfig::default());
            }
        }
        tally.injections += igcn_fail::fired(point);
        igcn_fail::remove(point);

        // Crash-restart: the recovered node must hold exactly the
        // acknowledged state, bit for bit — and recovery must never
        // rewind a metric.
        let counters = igcn_obs::snapshot().counters;
        let boot = store.boot(ExecConfig::default()).expect("recovery boot succeeds");
        assert_bit_identical(&boot.engine, &shadow, rng.gen(), &format!("{point} [{spec}]"));
        assert_counters_monotonic(&counters, &format!("{point} [{spec}] recovery boot"));
        engine = boot.engine;
        tally.recoveries += 1;
        // Repair the store like a restarted node would, so the next
        // round starts from a healthy generation pair.
        store.checkpoint(&engine).expect("post-recovery checkpoint");
    }
    assert_eq!(
        igcn_obs::counter("store_rejected_updates").get() - rejections_before,
        observed_rejections,
        "store_rejected_updates must tick once per observed engine rejection"
    );
    igcn_fail::teardown();
    tally
}

/// A structural update: mostly fresh nodes wired to a hub (always
/// valid), sometimes an edge between existing nodes (occasionally a
/// duplicate — exercising the engine-rejection + WAL-rollback path).
fn next_update(engine: &IGcnEngine, rng: &mut StdRng) -> GraphUpdate {
    let n = engine.graph().num_nodes() as u32;
    let hub = engine.partition().hubs().first().copied().unwrap_or(0);
    if rng.gen_bool(0.7) {
        GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1)
    } else {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1)
        } else {
            GraphUpdate::add_edges(vec![(a, b)])
        }
    }
}

/// Panic/delay schedules the shard campaign rotates through. `nth`
/// indexes layer-seam hits within one inference: 3 shards × 2 layers =
/// 6 hits sequentially, so every schedule can fire.
const SHARD_SPECS: &[&str] = &[
    "nth(1):panic",
    "nth(2):panic",
    "nth(3):panic",
    "nth(4):panic",
    "nth(5):panic",
    "nth(6):panic",
    "panic",
    "prob(0.5,11):panic",
    "delay(1)",
];

/// Runs the shard campaign until `target` faults have fired: inject a
/// kill schedule, require containment + degraded health + fail-fast,
/// heal, and require bit-identity with the pristine fleet.
fn shard_campaign(seed: u64, target: u64) -> Tally {
    assert_eq!(igcn_shard::FAILPOINTS, ["shard::run_layer"], "new shard failpoints need plans");
    // Injected shard panics are contained at the fan-out seam, but the
    // default hook would still print a backtrace per kill — hundreds of
    // them. Filter exactly those; everything else keeps reporting.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains("injected panic") {
            previous_hook(info);
        }
    }));
    let reference = engine_with_model(320, seed);
    let features = SparseFeatures::random(reference.graph().num_nodes(), DIM, 0.3, seed + 9);
    let request = InferenceRequest::new(features).with_id(1);
    let want = reference.infer(&request).expect("reference serves");
    // The fleet's ExecReport embeds its own backend name and the
    // fan-out path's per-worker cycle split, so the stats baselines
    // come from an undamaged fleet under each exec config — not from
    // the single engine.
    let mut pristine = ShardedEngine::from_engine(&reference, 3).expect("fleet partitions");
    let want_report_seq = pristine.infer(&request).expect("pristine fleet serves").report;
    pristine.set_exec_config(ExecConfig::default().with_threads(3));
    let want_report_pooled = pristine.infer(&request).expect("pristine fleet serves").report;
    let mut fleet = ShardedEngine::from_engine(&reference, 3).expect("fleet partitions");

    // Telemetry reconciliation: the fan-out seam counts one
    // `shard_contained_panics` per shard it marks Down, and the fleet
    // fails fast while degraded — so the counter delta must equal the
    // campaign's own tally of downed shards, exactly.
    let panics_before = igcn_obs::counter("shard_contained_panics").get();
    let mut observed_down: u64 = 0;

    let mut tally = Tally::default();
    let mut spec_idx = 0usize;
    while tally.injections < target {
        assert!(
            tally.rounds < target * 8,
            "shard campaign stalled: {} injections after {} rounds",
            tally.injections,
            tally.rounds
        );
        let spec = SHARD_SPECS[spec_idx % SHARD_SPECS.len()];
        spec_idx += 1;
        tally.rounds += 1;
        // Alternate the sequential and the pooled fan-out path.
        let pooled = tally.rounds % 2 == 0;
        let exec =
            if pooled { ExecConfig::default().with_threads(3) } else { ExecConfig::default() };
        fleet.set_exec_config(exec);

        igcn_fail::cfg("shard::run_layer", spec).expect("shard specs parse");
        let outcome = fleet.infer(&request);
        tally.injections += igcn_fail::fired("shard::run_layer");
        igcn_fail::remove("shard::run_layer");

        let down = fleet.down_shards();
        if down.is_empty() {
            // The schedule did not kill anything (delay, or prob that
            // never fired): the request must have served bit-exactly.
            let got = outcome.expect("no shard died, so the request serves");
            assert_eq!(got.output, want.output, "{spec}: undamaged fleet output diverged");
        } else {
            // Containment: typed error, degraded health, fail-fast.
            assert!(
                matches!(outcome, Err(CoreError::BackendFailed { .. })),
                "{spec}: a shard kill must surface as BackendFailed"
            );
            assert!(
                matches!(fleet.health(), BackendHealth::Degraded { .. }),
                "{spec}: a down shard must degrade fleet health"
            );
            assert!(
                fleet.infer(&request).is_err(),
                "{spec}: a degraded fleet must fail fast, not serve through a dead shard"
            );
            observed_down += down.len() as u64;
            let counters = igcn_obs::snapshot().counters;
            let healed = fleet.heal();
            assert_eq!(healed, down, "{spec}: heal must rebuild exactly the dead shards");
            assert_counters_monotonic(&counters, &format!("{spec}: heal"));
            tally.recoveries += 1;
        }
        assert!(fleet.health().is_ready(), "{spec}: fleet must be ready after the round");
        let want_report = if pooled { &want_report_pooled } else { &want_report_seq };
        let got = fleet.infer(&request).expect("healed fleet serves");
        assert_eq!(got.output, want.output, "{spec}: post-heal output is not bit-identical");
        assert_eq!(&got.report, want_report, "{spec}: post-heal ExecStats diverged");
    }
    assert_eq!(
        igcn_obs::counter("shard_contained_panics").get() - panics_before,
        observed_down,
        "shard_contained_panics must tick once per shard the campaign saw go down"
    );
    igcn_fail::teardown();
    tally
}

/// Times `igcn_fail::eval` per call: once with the registry empty (the
/// production configuration — one relaxed atomic load) and once with
/// an armed registry (the chaos configuration — a registry lock per
/// hit, using a never-firing trigger so only lookup cost is measured).
fn overhead_probe(iters: u64) -> (f64, f64) {
    igcn_fail::teardown();
    let timed = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(igcn_fail::eval(std::hint::black_box("chaos::probe")));
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    let disabled_ns = timed(iters);
    igcn_fail::cfg("chaos::probe", &format!("nth({}):return", u64::MAX)).expect("spec parses");
    // The armed path serializes on the registry lock, so probe fewer
    // iterations — the point is the order of magnitude.
    let armed_ns = timed(iters / 8 + 1);
    igcn_fail::teardown();
    (disabled_ns, armed_ns)
}

fn main() {
    let args = parse_args();
    let (store_target, shard_target, probe_iters) =
        if args.quick { (120, 100, 200_000) } else { (400, 280, 2_000_000) };

    let dir: PathBuf = std::env::temp_dir().join(format!("igcn-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");

    eprintln!("store campaign: target {store_target} injections...");
    let store = store_campaign(&dir, args.seed, store_target);
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "  {} injections / {} rounds, {} recovery cycles, all bit-identical",
        store.injections, store.rounds, store.recoveries
    );

    eprintln!("shard campaign: target {shard_target} injections...");
    let shard = shard_campaign(args.seed + 1, shard_target);
    eprintln!(
        "  {} injections / {} rounds, {} heal cycles, all bit-identical",
        shard.injections, shard.rounds, shard.recoveries
    );

    let (disabled_ns, armed_ns) = overhead_probe(probe_iters);
    eprintln!("failpoint eval: disabled {disabled_ns:.2} ns/call, armed {armed_ns:.1} ns/call");
    assert!(
        disabled_ns < 1_000.0,
        "a disabled failpoint must cost nanoseconds, measured {disabled_ns:.1} ns/call"
    );

    let total = store.injections + shard.injections;
    assert!(total >= 200, "campaign total must reach 200 injections, got {total}");

    // Recovery is asserted per cycle, so reaching this line IS the
    // 100 % recovery rate.
    println!(
        "chaos ok: {total} injections (store {}, shard {}), {} recovery cycles, all \
         bit-identical; shard_contained_panics={} store_rejected_updates={}",
        store.injections,
        shard.injections,
        store.recoveries + shard.recoveries,
        igcn_obs::counter("shard_contained_panics").get(),
        igcn_obs::counter("store_rejected_updates").get(),
    );
}
