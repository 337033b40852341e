//! Telemetry smoke tool: proves the observability layer end to end and
//! prints per-stage latency for both wire protocols.
//!
//! ```text
//! obs_tool [--quick] [--seed N] [--requests N]
//! ```
//!
//! One run walks the whole telemetry contract, asserting each step
//! (any violation panics — the CI contract):
//!
//! * **overhead** — probes the disabled-span fast path before anything
//!   enables telemetry and asserts it stays at single-digit
//!   nanoseconds per span: instrumented code must be free to leave
//!   spans in place unconditionally.
//! * **neutrality** — runs the same inference on a sharded fleet with
//!   telemetry off and on; output *and* `ExecStats` must be
//!   bit-identical. Instrumentation observes, never perturbs.
//! * **store** — an `apply_update` + `checkpoint` campaign populates
//!   the `wal_append`/`checkpoint` stage histograms and provokes one
//!   engine rejection so the `store_rejected_updates` counter ticks.
//! * **gateway** — serves the fleet over TCP and drives HTTP then
//!   binary requests with caller-supplied trace IDs (each echo is
//!   asserted). Per-stage histograms are snapshotted around each
//!   phase, so the printed p50/p99 are per protocol.
//! * **scrape** — `GET /metrics` must parse line-by-line as Prometheus
//!   text and `GET /stats` must carry the per-stage JSON; the flight
//!   recorder must hold traced entries for the driven requests.
//! * **coverage** — every declared stage in [`igcn_obs::stage::ALL`]
//!   must have recorded at least one sample by the end of the run.
//!
//! The per-stage table goes to stdout; nothing is written.

use std::sync::Arc;

use igcn_bench::Table;
use igcn_core::{Accelerator, GraphUpdate, IGcnEngine, InferenceRequest};
use igcn_gateway::{BinaryClient, Gateway, GatewayConfig, HttpClient, InferReply};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_obs::{HistogramSnapshot, MetricsSnapshot};
use igcn_shard::ShardedEngine;
use igcn_store::EngineStore;

const DIM: usize = 12;

struct Args {
    quick: bool,
    seed: u64,
    requests: u64,
}

fn parse_args() -> Args {
    let mut args = Args { quick: false, seed: 11, requests: 0 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs an integer value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--seed" => args.seed = value("--seed"),
            "--requests" => args.requests = value("--requests"),
            other => {
                eprintln!(
                    "unknown flag {other:?}; usage: obs_tool [--quick] [--seed N] [--requests N]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.requests == 0 {
        args.requests = if args.quick { 40 } else { 200 };
    }
    args
}

fn engine_with_model(n: usize, seed: u64) -> IGcnEngine {
    let g = HubIslandConfig::new(n, 10).noise_fraction(0.03).generate(seed);
    let mut engine = IGcnEngine::builder(g.graph).build().expect("generated graphs are loop-free");
    let model = GnnModel::gcn(DIM, 9, 5);
    let weights = ModelWeights::glorot(&model, seed + 1);
    engine.prepare(&model, &weights).expect("weights match the model");
    engine
}

/// The per-stage histogram delta between two registry snapshots (zero
/// when the stage never recorded in either).
fn stage_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    stage: &str,
) -> HistogramSnapshot {
    let name = format!("stage_ns/{stage}");
    let find = |snap: &MetricsSnapshot| {
        snap.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h.clone()).unwrap_or_default()
    };
    find(after).delta_since(&find(before))
}

/// One table row per stage that recorded inside the phase, in
/// declaration order.
fn phase_rows(table: &mut Table, phase: &str, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    for stage in igcn_obs::stage::ALL {
        let delta = stage_delta(before, after, stage);
        if delta.count() > 0 {
            table.row(vec![
                phase.to_string(),
                (*stage).to_string(),
                delta.count().to_string(),
                delta.quantile(0.50).to_string(),
                delta.quantile(0.99).to_string(),
                delta.max.to_string(),
            ]);
        }
    }
}

/// Proves instrumentation neutrality: the same request on the same
/// fleet, telemetry off vs on, must be bit-identical in output and
/// `ExecStats`.
fn assert_instrumentation_neutral(fleet: &ShardedEngine, seed: u64) {
    let x = SparseFeatures::random(fleet.graph().num_nodes(), DIM, 0.3, seed);
    let request = InferenceRequest::new(x).with_id(7);
    igcn_obs::set_enabled(false);
    let off = fleet.infer(&request).expect("fleet serves with telemetry off");
    igcn_obs::set_enabled(true);
    let on = fleet.infer(&request).expect("fleet serves with telemetry on");
    assert_eq!(off.output, on.output, "telemetry changed inference output");
    assert_eq!(off.report, on.report, "telemetry changed ExecStats");
}

/// Populates the `wal_append`/`checkpoint` stages and ticks the
/// rollback counter once via a duplicate-edge rejection.
fn store_campaign(dir: &std::path::Path, seed: u64, updates: u64) {
    let store = EngineStore::at(dir.join("obs.snap"));
    let mut engine = engine_with_model(160, seed);
    store.checkpoint(&engine).expect("initial checkpoint");
    let hub = engine.partition().hubs().first().copied().unwrap_or(0);
    let recomposition = ["islands_carried", "islands_rebuilt", "rows_rebuilt"]
        .map(|what| igcn_obs::counter(&format!("engine_update_{what}")));
    let before = recomposition.map(igcn_obs::Counter::get);
    for _ in 0..updates {
        let n = engine.graph().num_nodes();
        let update = GraphUpdate::add_edges(vec![(n as u32, hub)]).with_num_nodes(n + 1);
        store.apply_update(&mut engine, update).expect("fresh-node update is acknowledged");
    }
    // Each update recomposed the layout once: every old island carried,
    // the new node's singleton island and the hub rows rebuilt.
    let ticked = recomposition.map(igcn_obs::Counter::get);
    let islands = engine.partition().num_islands() as u64;
    let hubs = engine.partition().num_hubs() as u64;
    assert_eq!(ticked[0] - before[0], (islands - updates..islands).sum::<u64>());
    assert_eq!(ticked[1] - before[1], updates, "one island formed per update");
    assert_eq!(ticked[2] - before[2], updates * (hubs + 1), "hub rows + the new node's");
    assert_eq!(igcn_obs::gauge("engine_hubs").get(), hubs as i64, "engine_hubs gauge");
    store.checkpoint(&engine).expect("mid-campaign checkpoint");
    // A self-loop is rejected by the engine before anything is logged:
    // the counter ticks exactly once and the log stays as it was.
    let rejections_before = igcn_obs::counter("store_rejected_updates").get();
    let log_bytes = std::fs::metadata(store.wal_path()).map(|m| m.len()).ok();
    store
        .apply_update(&mut engine, GraphUpdate::add_edges(vec![(hub, hub)]))
        .expect_err("self-loop is rejected");
    assert_eq!(
        igcn_obs::counter("store_rejected_updates").get(),
        rejections_before + 1,
        "a rejected update must tick store_rejected_updates"
    );
    assert_eq!(
        std::fs::metadata(store.wal_path()).map(|m| m.len()).ok(),
        log_bytes,
        "a rejected update must not touch the log"
    );
    store.checkpoint(&engine).expect("final checkpoint");
}

/// Every non-comment `/metrics` line must be `name[ {labels}] value`
/// with a parseable numeric value — the Prometheus text contract —
/// and every `# TYPE` family must be introduced by a `# HELP` line.
fn assert_prometheus_parses(text: &str) {
    let mut samples = 0usize;
    let mut last_help: Option<&str> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            last_help = rest.split(' ').next();
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().unwrap_or("");
            assert_eq!(
                last_help,
                Some(family),
                "# TYPE {family} must be preceded by its # HELP line"
            );
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = line.rsplit(' ').next().unwrap_or("");
        assert!(value.parse::<f64>().is_ok(), "unparseable /metrics sample line: {line:?}");
        samples += 1;
    }
    assert!(samples > 0, "/metrics rendered no samples");
    for family in [
        "igcn_stage_ns",
        "igcn_gateway_admitted_total",
        "igcn_gateway_connections_total",
        "igcn_gateway_queue_depth",
        "igcn_gateway_inflight",
        "igcn_gateway_shed_reason_total{reason=\"queue_full\"}",
    ] {
        assert!(text.contains(family), "/metrics is missing the {family} family");
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    let probe_iters: u64 = if args.quick { 400_000 } else { 4_000_000 };

    // 1. Disabled-span overhead, probed before anything turns
    //    telemetry on: this is the cost every instrumented callsite
    //    pays in a process that never observes.
    let overhead_ns = igcn_obs::disabled_span_overhead_ns(probe_iters);
    eprintln!("[obs] disabled span: {overhead_ns:.2} ns/span over {probe_iters} iters");
    assert!(overhead_ns <= 5.0, "disabled spans must cost <= 5 ns, measured {overhead_ns:.2} ns");

    // 2. Neutrality on a sharded fleet (covers the halo spans too).
    let reference = engine_with_model(300, args.seed);
    let fleet = ShardedEngine::from_engine(&reference, 2).expect("fleet partitions");
    assert_instrumentation_neutral(&fleet, args.seed + 3);
    eprintln!("[obs] instrumentation neutral: output and ExecStats bit-identical off/on");

    igcn_obs::set_enabled(true);

    // 3. Store campaign: wal_append + checkpoint stages, rollback
    //    counter.
    let dir = std::env::temp_dir().join(format!("igcn-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    let store_updates = if args.quick { 16 } else { 64 };
    let store_before = igcn_obs::snapshot();
    store_campaign(&dir, args.seed + 5, store_updates);
    std::fs::remove_dir_all(&dir).ok();
    let store_after = igcn_obs::snapshot();
    eprintln!(
        "[obs] store campaign: {} wal appends, {} checkpoints",
        stage_delta(&store_before, &store_after, igcn_obs::stage::WAL_APPEND).count(),
        stage_delta(&store_before, &store_after, igcn_obs::stage::CHECKPOINT).count()
    );

    // 4. Gateway phases: HTTP then binary, caller-minted trace IDs.
    let backend: Arc<dyn Accelerator> = Arc::new(fleet);
    let gateway = match Gateway::serve(backend, ("127.0.0.1", 0), GatewayConfig::from_env()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: gateway bind failed: {e}");
            std::process::exit(2);
        }
    };
    let addr = gateway.local_addr();
    let x = SparseFeatures::random(reference.graph().num_nodes(), DIM, 0.3, args.seed + 4);
    eprintln!("[obs] gateway on {addr}; driving {} requests per protocol...", args.requests);

    let http_before = igcn_obs::snapshot();
    let mut http = HttpClient::connect(addr).expect("gateway accepts");
    for k in 0..args.requests {
        let trace = 0x0B50_0000_0000_0000 | (k + 1);
        let (reply, echoed) =
            http.infer_traced(k + 1, Some(10_000), &x, trace).expect("http request round-trips");
        assert!(
            matches!(reply, InferReply::Output { .. }),
            "unloaded gateway must serve, got {reply:?}"
        );
        assert_eq!(echoed, trace, "http reply must echo the supplied trace id");
    }
    let http_after = igcn_obs::snapshot();

    let mut binary = BinaryClient::connect(addr).expect("gateway accepts");
    for k in 0..args.requests {
        let trace = 0x0B11_0000_0000_0000 | (k + 1);
        let (reply, echoed) = binary
            .infer_traced(k + 1, Some(10_000), &x, trace)
            .expect("binary request round-trips");
        assert!(
            matches!(reply, InferReply::Output { .. }),
            "unloaded gateway must serve, got {reply:?}"
        );
        assert_eq!(echoed, trace, "binary reply must echo the supplied trace id");
    }
    let binary_after = igcn_obs::snapshot();

    // 5. Scrape endpoints + flight recorder.
    let (status, metrics_text, _) = http.get_traced("/metrics", 0).expect("/metrics round-trips");
    assert_eq!(status, 200, "/metrics must serve 200");
    assert_prometheus_parses(&metrics_text);
    let (status, stats_body, _) = http.get_traced("/stats", 0).expect("/stats round-trips");
    assert_eq!(status, 200, "/stats must serve 200");
    for key in ["\"stages\"", "\"queue_wait\"", "\"shards\""] {
        assert!(stats_body.contains(key), "/stats is missing {key}");
    }
    let (status, flight_body, _) =
        http.get_traced("/debug/flight", 0).expect("/debug/flight round-trips");
    assert_eq!(status, 200, "/debug/flight must serve 200");
    assert!(
        flight_body.contains("\"entries\"") && flight_body.contains("\"stages_us\""),
        "/debug/flight must serve the flight-recorder ring as JSON"
    );
    let flights = igcn_obs::flight_entries();
    assert!(!flights.is_empty(), "flight recorder must hold the driven requests");
    assert!(flights.len() <= igcn_obs::FLIGHT_CAPACITY, "flight recorder overflowed its ring");
    assert!(
        flights.iter().all(|f| f.trace_id != 0),
        "every flight entry must carry a nonzero trace id"
    );
    let stats = gateway.stats();
    gateway.shutdown();

    // 6. Coverage: all declared stages recorded somewhere in this run.
    let end = igcn_obs::snapshot();
    for stage in igcn_obs::stage::ALL {
        let name = format!("stage_ns/{stage}");
        let count = end.histograms.iter().find(|(n, _)| *n == name).map_or(0, |(_, h)| h.count());
        assert!(count > 0, "stage {stage} recorded no samples this run");
    }
    eprintln!(
        "[obs] all {} stages populated; {} flight entries; {} requests served",
        igcn_obs::stage::ALL.len(),
        flights.len(),
        stats.completed
    );

    let mut table = Table::new(vec!["phase", "stage", "count", "p50 (ns)", "p99 (ns)", "max (ns)"]);
    phase_rows(&mut table, "store", &store_before, &store_after);
    phase_rows(&mut table, "http", &http_before, &http_after);
    phase_rows(&mut table, "binary", &http_after, &binary_after);
    println!("\n# Per-stage latency by phase (log2-bucket upper bounds; a smoke reading)\n");
    println!("{}", table.to_markdown());
}
