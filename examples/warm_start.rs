//! Persistence & warm start: the full durability loop of a serving
//! node.
//!
//! 1. Cold-build an engine (pays the islandization cost once), serve it
//!    behind a `ServingEngine`, and checkpoint it to an `EngineStore`
//!    after shutdown.
//! 2. "Restart": boot a new engine from the snapshot — no locator
//!    pass — and verify it answers bit-identically.
//! 3. Evolve the graph through the WAL-first update path, "crash", and
//!    boot again: the replayed engine matches the live one exactly.
//!
//! Run: `cargo run --release --example warm_start`

use std::sync::Arc;
use std::time::Instant;

use igcn::core::accel::{Accelerator, InferenceRequest};
use igcn::core::{ExecConfig, GraphUpdate, IGcnEngine};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::SparseFeatures;
use igcn::serve::{ServingConfig, ServingEngine};
use igcn::store::EngineStore;

const N: usize = 4_000;
const DIM: usize = 32;

fn main() {
    let store = EngineStore::at(std::env::temp_dir().join("igcn-warm-start-example.snap"));

    // --- 1. Cold build + serve + checkpoint after shutdown. ----------
    let g = HubIslandConfig::new(N, N / 25).noise_fraction(0.02).generate(7);
    let model = GnnModel::gcn(DIM, 16, 8);
    let weights = ModelWeights::glorot(&model, 1);

    let t0 = Instant::now();
    let mut engine = IGcnEngine::builder(g.graph).build().expect("loop-free graph");
    engine.prepare(&model, &weights).expect("weights match");
    let cold_s = t0.elapsed().as_secs_f64();
    println!("cold build (islandize + layout + prepare): {:.1} ms", cold_s * 1e3);

    let backend = Arc::new(engine);
    let serving = ServingEngine::start(
        Arc::<IGcnEngine>::clone(&backend) as Arc<dyn Accelerator>,
        ServingConfig::default(),
    );
    let request = InferenceRequest::new(SparseFeatures::random(N, DIM, 0.05, 9)).with_id(1);
    let first = serving.submit(request.clone()).expect("accepting").wait().expect("served");
    serving.shutdown(); // graceful: drains, joins
                        // Serving never mutates the engine, so one checkpoint after shutdown
                        // captures everything it served from.
    store.checkpoint(&backend).expect("checkpoint writes");
    println!(
        "served request {} and checkpointed {} bytes to {}",
        first.id,
        std::fs::metadata(store.snapshot_path()).map(|m| m.len()).unwrap_or(0),
        store.snapshot_path().display()
    );

    // --- 2. Restart: warm boot skips islandization. -------------------
    let t1 = Instant::now();
    let boot = store.boot(ExecConfig::default()).expect("warm boot");
    let warm_s = t1.elapsed().as_secs_f64();
    println!(
        "warm boot (read + verify + validate): {:.1} ms — {:.1}x faster than cold",
        warm_s * 1e3,
        cold_s / warm_s.max(1e-9)
    );
    let warm_resp = boot.engine.infer(&request).expect("prepared from snapshot");
    assert_eq!(warm_resp.output, first.output, "warm engine must answer bit-identically");
    println!("warm engine output is bit-identical to the pre-restart engine");

    // --- 3. Evolve through the WAL, crash, boot again. ----------------
    let mut live = boot.engine;
    let hub = live.partition().hubs()[0];
    let n = live.graph().num_nodes() as u32;
    let report = store
        .apply_update(
            &mut live,
            GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1),
        )
        .expect("valid update");
    println!(
        "WAL-first update: +1 node onto hub {hub} ({} islands dissolved, log now {} bytes)",
        report.dissolved_islands,
        std::fs::metadata(store.wal_path()).map(|m| m.len()).unwrap_or(0)
    );

    // No checkpoint taken — a "crash" here loses nothing: boot replays
    // the log over the old snapshot.
    let rebooted = store.boot(ExecConfig::default()).expect("boot with WAL replay");
    assert_eq!(rebooted.replayed_updates, 1);
    let x = SparseFeatures::random(live.graph().num_nodes(), DIM, 0.05, 11);
    let a = live.run(&x, &model, &weights).expect("live serves");
    let b = rebooted.engine.run(&x, &model, &weights).expect("rebooted serves");
    assert_eq!(a.0, b.0, "snapshot + WAL replay reconstructs the live engine exactly");
    println!(
        "rebooted engine replayed {} update(s) and matches the live engine bit for bit",
        rebooted.replayed_updates
    );

    std::fs::remove_file(store.snapshot_path()).ok();
    std::fs::remove_file(store.wal_path()).ok();
}
