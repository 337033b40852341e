//! Trace-tree smoke + export tool: proves the hierarchical tracing
//! path end to end against a live sharded gateway.
//!
//! ```text
//! trace_tool [--quick] [--seed N] [--requests N]
//! ```
//!
//! One run asserts the whole trace contract (any violation panics —
//! the CI contract):
//!
//! * **capture** — a 4-shard fleet serves traced HTTP and binary
//!   requests with the tail-sampling threshold forced to zero, so
//!   every request's tree is retained.
//! * **listing** — `GET /traces` must list the driven trace ids with
//!   their status and span counts.
//! * **export** — `GET /trace/{id}` must serve Chrome trace-event
//!   JSON whose events include the full request skeleton (request,
//!   decode, queue_wait, dispatch, per-layer execute, halo exchange
//!   and merge) and at least one `shard_execute` event per shard,
//!   each on its own `tid` track; every non-root event's `parent_id`
//!   must resolve to another event in the same export.
//! * **flight** — `GET /debug/flight` must report the driven
//!   requests; unknown trace ids must 404.
//! * **drain** — after shutdown no in-progress trace may be leaked
//!   and the retention ring must hold its budget.
//!
//! The structural counts go to stdout; nothing is written.

use std::collections::BTreeSet;
use std::sync::Arc;

use igcn_core::{Accelerator, IGcnEngine};
use igcn_gateway::{BinaryClient, Gateway, GatewayConfig, HttpClient, InferReply};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_shard::ShardedEngine;
use serde::json::JsonValue;

const DIM: usize = 12;
const SHARDS: usize = 4;

struct Args {
    quick: bool,
    seed: u64,
    requests: u64,
}

fn parse_args() -> Args {
    let mut args = Args { quick: false, seed: 17, requests: 0 };
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
                    "unknown flag {other:?}; usage: trace_tool [--quick] [--seed N] [--requests N]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.requests == 0 {
        args.requests = if args.quick { 6 } else { 24 };
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

/// The names and (span_id, parent_id, shard-tag) triples of every
/// `ph:"X"` event in a Chrome export.
struct ChromeEvents {
    names: Vec<String>,
    span_ids: BTreeSet<u64>,
    parent_ids: Vec<u64>,
    shards: BTreeSet<u64>,
    tids: BTreeSet<u64>,
}

fn parse_chrome(body: &str) -> ChromeEvents {
    let doc = JsonValue::parse(body).expect("/trace/{id} body must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("export must carry a traceEvents array");
    let mut out = ChromeEvents {
        names: Vec::new(),
        span_ids: BTreeSet::new(),
        parent_ids: Vec::new(),
        shards: BTreeSet::new(),
        tids: BTreeSet::new(),
    };
    for event in events {
        let ph = event.get("ph").and_then(JsonValue::as_str).unwrap_or_default();
        if ph != "X" {
            continue;
        }
        let name = event.get("name").and_then(JsonValue::as_str).expect("event has a name");
        let args = event.get("args").expect("event has args");
        let id = |key: &str| match args.get(key) {
            Some(&JsonValue::Uint(v)) => v,
            other => panic!("event {name} args.{key} must be an integer, got {other:?}"),
        };
        out.span_ids.insert(id("span_id"));
        out.parent_ids.push(id("parent_id"));
        if let Some(JsonValue::Str(shard)) = args.get("shard") {
            out.shards.insert(shard.parse().expect("shard tags are integers"));
        }
        if let Some(&JsonValue::Uint(tid)) = event.get("tid") {
            out.tids.insert(tid);
        }
        out.names.push(name.to_string());
    }
    out
}

fn count(events: &ChromeEvents, name: &str) -> usize {
    events.names.iter().filter(|n| *n == name).count()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();

    igcn_obs::set_enabled(true);
    // Tail sampling would keep only slow/errored trees; this tool
    // wants every tree, so the threshold drops to zero for the run.
    igcn_obs::trace::set_slow_threshold_ns(0);
    igcn_obs::trace::reset_traces();

    let reference = engine_with_model(300, args.seed);
    let fleet =
        ShardedEngine::from_engine(&reference, SHARDS).expect("fleet partitions into 4 shards");
    let layers = 2u64; // GnnModel::gcn is 2 layers
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
    eprintln!("[trace] gateway on {addr}; driving {} traced requests...", args.requests);

    // Drive traced requests over both protocols.
    let mut http = HttpClient::connect(addr).expect("gateway accepts");
    let mut http_traces = Vec::new();
    for k in 0..args.requests {
        let trace = 0x7_1ACE_0000_0000 | (k + 1);
        let (reply, echoed) =
            http.infer_traced(k + 1, Some(10_000), &x, trace).expect("http request round-trips");
        assert!(matches!(reply, InferReply::Output { .. }), "unloaded gateway must serve");
        assert_eq!(echoed, trace, "http reply must echo the supplied trace id");
        http_traces.push(trace);
    }
    let mut binary = BinaryClient::connect(addr).expect("gateway accepts");
    let binary_trace = 0xB_1ACE_0000_0001u64;
    let (reply, echoed) =
        binary.infer_traced(1, Some(10_000), &x, binary_trace).expect("binary round-trips");
    assert!(matches!(reply, InferReply::Output { .. }), "unloaded gateway must serve");
    assert_eq!(echoed, binary_trace, "binary reply must echo the supplied trace id");

    // Listing: every driven trace id shows up, status ok.
    let (status, listing, _) = http.get_traced("/traces", 0).expect("/traces round-trips");
    assert_eq!(status, 200, "/traces must serve 200");
    let doc = JsonValue::parse(&listing).expect("/traces body must parse as JSON");
    let retained = doc
        .get("retained")
        .and_then(JsonValue::as_array)
        .expect("/traces body must carry a retained array");
    let listed: Vec<&str> = retained
        .iter()
        .map(|row| {
            assert_eq!(
                row.get("status").and_then(JsonValue::as_str),
                Some("ok"),
                "every driven request completed, so every retained trace must be ok"
            );
            row.get("trace_id").and_then(JsonValue::as_str).expect("rows carry trace_id")
        })
        .collect();
    for trace in http_traces.iter().chain([&binary_trace]) {
        let id = format!("{trace:016x}");
        assert!(listed.contains(&id.as_str()), "/traces must list driven trace {id}");
    }
    let retention = igcn_obs::trace::retention();
    assert!(retained.len() <= retention, "retained {} > budget {retention}", retained.len());

    // Export: the last HTTP trace, straight from the wire.
    let probe = *http_traces.last().expect("at least one request");
    let (status, body, _) =
        http.get_traced(&format!("/trace/{probe:016x}"), 0).expect("/trace/{id} round-trips");
    assert_eq!(status, 200, "/trace/{{id}} must serve 200 for a retained trace");
    let events = parse_chrome(&body);
    for name in [
        "request",
        igcn_obs::stage::GATEWAY_DECODE_HTTP,
        igcn_obs::stage::QUEUE_WAIT,
        igcn_obs::stage::DISPATCH,
        igcn_obs::stage::LAYER_EXECUTE,
        igcn_obs::stage::HALO_EXCHANGE,
        igcn_obs::stage::HALO_MERGE,
        igcn_obs::stage::SHARD_EXECUTE,
    ] {
        assert!(count(&events, name) > 0, "export is missing {name:?} events");
    }
    assert_eq!(
        count(&events, igcn_obs::stage::LAYER_EXECUTE) as u64,
        layers,
        "one layer_execute span per layer"
    );
    assert_eq!(
        count(&events, igcn_obs::stage::SHARD_EXECUTE) as u64,
        layers * SHARDS as u64,
        "one shard_execute span per shard per layer"
    );
    assert_eq!(
        events.shards,
        (0..SHARDS as u64).collect::<BTreeSet<_>>(),
        "shard_execute spans must cover all {SHARDS} shards"
    );
    assert!(
        (1..=SHARDS as u64).all(|t| events.tids.contains(&t)),
        "each shard must render on its own Chrome track (tid = shard + 1), got {:?}",
        events.tids
    );
    // Tree integrity as exported: every non-root parent id resolves.
    let roots = events.parent_ids.iter().filter(|&&p| p == 0).count();
    assert_eq!(roots, 1, "exactly one root event, got {roots}");
    for &parent in &events.parent_ids {
        assert!(
            parent == 0 || events.span_ids.contains(&parent),
            "dangling parent_id {parent} in export"
        );
    }

    // The binary trace exports too, with the binary decode stage.
    let (status, body, _) = http
        .get_traced(&format!("/trace/{binary_trace:016x}"), 0)
        .expect("/trace/{id} round-trips");
    assert_eq!(status, 200, "binary trace must be retained");
    let binary_events = parse_chrome(&body);
    assert!(
        count(&binary_events, igcn_obs::stage::GATEWAY_DECODE_BINARY) > 0,
        "binary trace must carry the binary decode stage"
    );

    // Unknown ids 404; the flight recorder saw the requests.
    let (status, _, _) =
        http.get_traced("/trace/00000000000000aa", 0).expect("unknown id round-trips");
    assert_eq!(status, 404, "an unretained trace id must 404");
    let (status, flight, _) = http.get_traced("/debug/flight", 0).expect("/debug/flight serves");
    assert_eq!(status, 200, "/debug/flight must serve 200");
    let doc = JsonValue::parse(&flight).expect("/debug/flight body must parse as JSON");
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("/debug/flight carries an entries array");
    assert!(entries.len() as u64 >= args.requests, "flight recorder must hold the driven requests");

    let stats = gateway.stats();
    gateway.shutdown();

    // Drain: nothing in progress, retention honoured.
    assert_eq!(igcn_obs::trace::in_progress_count(), 0, "shutdown leaked in-progress traces");
    assert!(igcn_obs::trace::retained_count() <= retention, "retention budget violated");
    println!(
        "trace ok: {} traces retained (budget {retention}); probe {probe:016x} exported {} events \
         ({} layer_execute, {} shard_execute) across {} tracks; gateway admitted={} completed={} \
         inflight_after_drain={}",
        igcn_obs::trace::retained_count(),
        events.names.len(),
        count(&events, igcn_obs::stage::LAYER_EXECUTE),
        count(&events, igcn_obs::stage::SHARD_EXECUTE),
        events.tids.len(),
        stats.admitted,
        stats.completed,
        stats.inflight
    );
}
