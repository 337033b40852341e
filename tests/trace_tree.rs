//! Trace-tree integrity under sharded load.
//!
//! The contracts pinned here (the tentpole invariants of the
//! hierarchical tracing layer):
//!
//! * a traced sharded inference assembles one tree whose every child
//!   points at a live parent — no orphans, no dangling parent ids;
//! * the per-shard `shard_execute` spans cover all K shards in every
//!   layer;
//! * the engine and its fleets run one request loop: a plain engine, a
//!   1-shard and a K-shard fleet tag their `layer_execute` spans alike,
//!   and only the fleets add `shards` and halo children;
//! * concurrent traced requests keep their trees disjoint and leak
//!   nothing: once all requests drain, no in-progress assembly
//!   remains;
//! * the tail sampler never exceeds its retention budget, evicting
//!   oldest-first;
//! * through a gateway, a request's `dispatch` span is its own service:
//!   one worker's dispatch spans never overlap, and no other request's
//!   layers run inside one;
//! * an update's `layout_recompose` span and `engine_update_*` counters
//!   carry its slot moves, and with telemetry off no counter moves.
//!
//! The trace store is process-global, so every test serialises on one
//! mutex and resets the store before it runs.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use igcn::core::{Accelerator, GraphUpdate, IGcnEngine, InferenceRequest};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::SparseFeatures;
use igcn::obs::trace;
use igcn::shard::ShardedEngine;

const DIM: usize = 12;
const SHARDS: usize = 4;
const LAYERS: usize = 2; // GnnModel::gcn is two layers

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn engine(seed: u64) -> IGcnEngine {
    let g = HubIslandConfig::new(300, 10).noise_fraction(0.03).generate(seed);
    let mut engine = IGcnEngine::builder(g.graph).build().expect("generated graphs are loop-free");
    let model = GnnModel::gcn(DIM, 9, 5);
    let weights = ModelWeights::glorot(&model, seed + 1);
    engine.prepare(&model, &weights).expect("weights match the model");
    engine
}

fn fleet(seed: u64) -> ShardedEngine {
    ShardedEngine::from_engine(&engine(seed), SHARDS).expect("fleet partitions")
}

/// Runs one traced inference and returns its retained tree.
fn traced_infer(backend: &dyn Accelerator, trace_id: u64, seed: u64) -> trace::RetainedTrace {
    let x = SparseFeatures::random(backend.graph().num_nodes(), DIM, 0.3, seed);
    let mut root = trace::root_span(trace_id, "request");
    assert!(root.is_live(), "enabled + nonzero id must root a trace");
    root.tag("protocol", "test");
    let request = InferenceRequest::new(x).with_id(trace_id).with_trace(root.ctx());
    backend.infer(&request).expect("backend serves");
    root.finish("ok");
    trace::retained_trace(trace_id).expect("zero threshold retains every trace")
}

/// Asserts the structural invariants of one sharded-inference tree.
fn assert_tree_integrity(tree: &trace::RetainedTrace) {
    assert_eq!(tree.status, "ok");
    assert_eq!(tree.truncated_spans, 0, "a single inference must not truncate");
    let ids: BTreeSet<u64> = tree.spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), tree.spans.len(), "span ids must be unique");
    let roots = tree.spans.iter().filter(|s| s.parent_id == 0).count();
    assert_eq!(roots, 1, "exactly one root span");
    for span in &tree.spans {
        assert!(
            span.parent_id == 0 || ids.contains(&span.parent_id),
            "span {} ({}) has dangling parent {}",
            span.span_id,
            span.name,
            span.parent_id
        );
    }
    // Per-layer skeleton: each layer_execute parents K shard spans
    // covering every shard index, plus halo exchange and merge.
    let layers: Vec<&trace::SpanRecord> =
        tree.spans.iter().filter(|s| s.name == "layer_execute").collect();
    assert_eq!(layers.len(), LAYERS, "one layer_execute span per layer");
    for layer in &layers {
        let shards: BTreeSet<u64> = tree
            .spans
            .iter()
            .filter(|s| s.name == "shard_execute" && s.parent_id == layer.span_id)
            .filter_map(|s| {
                s.tags.iter().find(|(k, _)| *k == "shard").and_then(|(_, v)| v.parse().ok())
            })
            .collect();
        assert_eq!(
            shards,
            (0..SHARDS as u64).collect::<BTreeSet<_>>(),
            "layer {} must cover all {SHARDS} shards",
            layer.span_id
        );
        for name in ["halo_exchange", "halo_merge"] {
            assert!(
                tree.spans.iter().any(|s| s.name == name && s.parent_id == layer.span_id),
                "layer {} is missing its {name} child",
                layer.span_id
            );
        }
        // The wavefront count, and the layer's I-GCN quantities from the
        // fleet's plan.
        for key in [
            "waves",
            "islands",
            "agg_ops_executed",
            "agg_ops_pruned",
            "hub_xw_hits",
            "offchip_bytes",
        ] {
            assert!(layer.tags.iter().any(|(k, _)| *k == key), "layer spans must carry `{key}`");
        }
    }
}

/// The sum of an integer tag over a tree's `layer_execute` spans.
fn layer_tag_sum(tree: &trace::RetainedTrace, key: &str) -> u64 {
    let layers = tree.spans.iter().filter(|s| s.name == "layer_execute");
    let tags = layers.flat_map(|s| s.tags.iter().filter(|(k, _)| *k == key));
    tags.map(|(_, v)| v.parse::<u64>().expect("integer tag")).sum()
}

#[test]
fn sharded_inference_assembles_a_complete_tree() {
    let _s = serial();
    igcn::obs::set_enabled(true);
    trace::set_slow_threshold_ns(0);
    trace::set_retention(64);
    trace::reset_traces();

    let fleet = fleet(21);
    let counters = ["engine_island_tasks", "engine_offchip_bytes", "shard_halo_bytes"];
    let before = counters.map(|name| igcn::obs::counter(name).get());
    let tree = traced_infer(&fleet, 0x7E57_0001, 5);
    assert_tree_integrity(&tree);
    assert_eq!(trace::in_progress_count(), 0, "finished trace must leave assembly");

    // The tags and the `/metrics` counters speak the request's report.
    let x = SparseFeatures::random(fleet.graph().num_nodes(), DIM, 0.3, 5);
    let report = fleet.report(&InferenceRequest::new(x)).expect("fleet prices");
    assert_eq!(layer_tag_sum(&tree, "offchip_bytes"), report.offchip_bytes);
    let islands = fleet.engine().partition().num_islands() as u64 * LAYERS as u64;
    assert_eq!(layer_tag_sum(&tree, "islands"), islands);
    let model = GnnModel::gcn(DIM, 9, 5);
    let expected = [islands, report.offchip_bytes, fleet.halo_bytes_per_inference(&model)];
    let ticked = counters.map(|name| igcn::obs::counter(name).get());
    for ((name, (before, after)), expected) in
        counters.iter().zip(before.iter().zip(ticked)).zip(expected)
    {
        assert_eq!(after - before, expected, "{name} must tick once per request");
    }
    igcn::obs::set_enabled(false);
}

/// The value of tag `key` on `span`, if it has one.
fn tag<'s>(span: &'s trace::SpanRecord, key: &str) -> Option<&'s str> {
    span.tags.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
}

#[test]
fn the_engines_layer_spans_are_the_fleets() {
    let _s = serial();
    igcn::obs::set_enabled(true);
    trace::set_slow_threshold_ns(0);
    trace::set_retention(64);
    trace::reset_traces();

    let engine = engine(26);
    let one = ShardedEngine::from_engine(&engine, 1).expect("fleet partitions");
    let four = ShardedEngine::from_engine(&engine, SHARDS).expect("fleet partitions");
    let backends: [(&dyn Accelerator, Option<usize>); 3] =
        [(&engine, None), (&one, Some(1)), (&four, Some(SHARDS))];
    let layer_tags = [
        "layer",
        "waves",
        "islands",
        "agg_ops_executed",
        "agg_ops_pruned",
        "hub_xw_hits",
        "offchip_bytes",
    ];
    let mut first: Option<Vec<Vec<String>>> = None;
    for (k, (backend, shards)) in backends.into_iter().enumerate() {
        let tree = traced_infer(backend, 0x5A3E_0000 + k as u64, 7);
        let mut layers: Vec<_> = tree.spans.iter().filter(|s| s.name == "layer_execute").collect();
        assert_eq!(layers.len(), LAYERS, "{}: one layer_execute span per layer", backend.name());
        layers.sort_by_key(|l| tag(l, "layer").map(str::to_string));
        for layer in &layers {
            let what = format!("{} layer {:?}", backend.name(), tag(layer, "layer"));
            assert_eq!(tag(layer, "shards"), shards.map(|k| k.to_string()).as_deref(), "{what}");
            let children: BTreeSet<&str> = tree
                .spans
                .iter()
                .filter(|s| s.parent_id == layer.span_id)
                .map(|s| s.name)
                .collect();
            let halo = ["halo_exchange", "halo_merge", "shard_execute"];
            let expected = if shards.is_some() { BTreeSet::from(halo) } else { BTreeSet::new() };
            assert_eq!(children, expected, "{what}: children");
        }
        // Layer for layer, the same quantities.
        let tags: Vec<Vec<String>> = layers
            .iter()
            .map(|l| {
                let value = |key: &&str| tag(l, key).unwrap_or_else(|| panic!("missing `{key}`"));
                layer_tags.iter().map(|key| value(key).to_string()).collect()
            })
            .collect();
        match &first {
            None => first = Some(tags),
            Some(engine_tags) => assert_eq!(&tags, engine_tags, "{} vs the engine", backend.name()),
        }
    }
    assert_eq!(trace::in_progress_count(), 0);
    igcn::obs::set_enabled(false);
}

#[test]
fn concurrent_traced_requests_stay_disjoint_and_leak_free() {
    let _s = serial();
    igcn::obs::set_enabled(true);
    trace::set_slow_threshold_ns(0);
    trace::set_retention(64);
    trace::reset_traces();

    let fleet = Arc::new(fleet(22));
    let threads = 4u64;
    let per_thread = 5u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                for k in 0..per_thread {
                    let id = 0xC0_0000 + t * 100 + k;
                    let tree = traced_infer(&*fleet, id, t * 31 + k);
                    assert_tree_integrity(&tree);
                    assert_eq!(tree.trace_id, id, "trees must not cross-contaminate");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("traced load must not panic");
    }
    assert_eq!(trace::in_progress_count(), 0, "drained load must leak no in-progress traces");
    assert_eq!(trace::retained_count(), (threads * per_thread) as usize);
    igcn::obs::set_enabled(false);
}

#[test]
fn pipelined_requests_on_one_worker_have_disjoint_dispatch_spans() {
    use igcn::gateway::{wire, Gateway, GatewayConfig};
    use igcn::serve::ServingConfig;
    use std::io::{Read, Write};

    let _s = serial();
    trace::set_slow_threshold_ns(0);
    trace::set_retention(64);
    trace::reset_traces();

    let fleet = fleet(25);
    let n = fleet.graph().num_nodes();
    let cfg = GatewayConfig::default().with_serving(ServingConfig::default().with_workers(1));
    let gateway = Gateway::serve(Arc::new(fleet), "127.0.0.1:0", cfg).expect("gateway binds");

    // Four requests in one write: a backlog behind the one worker.
    let ids: Vec<u64> = (0..4).map(|k| 0xD15_0000 + k).collect();
    let mut frames = Vec::new();
    for &id in &ids {
        let x = SparseFeatures::random(n, DIM, 0.3, id);
        frames.extend_from_slice(&wire::encode_infer(id, 0, &x, id));
    }
    let mut stream = std::net::TcpStream::connect(gateway.local_addr()).expect("connects");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    stream.write_all(&frames).unwrap();
    let (mut buf, mut chunk, mut answered) = (Vec::new(), [0u8; 4096], 0);
    while answered < ids.len() {
        while let wire::Decoded::Frame(frame, _, used) = wire::decode(&buf) {
            assert!(matches!(frame, wire::Frame::Ok { .. }), "expected an output, got {frame:?}");
            answered += 1;
            buf.drain(..used);
        }
        if answered < ids.len() {
            let read = stream.read(&mut chunk).expect("a reply within the read timeout");
            assert!(read > 0, "the gateway closed the connection");
            buf.extend_from_slice(&chunk[..read]);
        }
    }

    // Per request: its dispatch span, and the layers run under it. A
    // root is finished before its reply is written, so all four trees
    // are retained by now.
    let interval = |s: &trace::SpanRecord| (s.start_ns, s.start_ns + s.dur_ns);
    let served: Vec<_> = ids
        .iter()
        .map(|&id| {
            let tree = trace::retained_trace(id).expect("zero threshold retains every trace");
            let dispatch: Vec<_> = tree.spans.iter().filter(|s| s.name == "dispatch").collect();
            assert_eq!(dispatch.len(), 1, "trace {id:#x}: one dispatch span");
            let layers: Vec<_> = tree
                .spans
                .iter()
                .filter(|s| s.name == "layer_execute")
                .inspect(|s| assert_eq!(s.parent_id, dispatch[0].span_id, "trace {id:#x}"))
                .map(interval)
                .collect();
            assert_eq!(layers.len(), LAYERS, "trace {id:#x}: its own layers, and only them");
            (interval(dispatch[0]), layers)
        })
        .collect();
    for (i, ((start, end), layers)) in served.iter().enumerate() {
        for (a, b) in layers {
            assert!(start <= a && b <= end, "request {i}: a layer ran outside its dispatch span");
        }
        for (j, ((other_start, other_end), _)) in served.iter().enumerate() {
            assert!(
                i == j || end <= other_start || other_end <= start,
                "dispatch spans of requests {i} and {j} overlap"
            );
        }
    }
    gateway.shutdown();
    igcn::obs::set_enabled(false);
}

#[test]
fn tail_sampler_never_exceeds_its_retention_budget() {
    let _s = serial();
    igcn::obs::set_enabled(true);
    trace::set_slow_threshold_ns(0);
    trace::set_retention(8);
    trace::reset_traces();

    let fleet = fleet(23);
    for k in 0..20u64 {
        let _ = traced_infer(&fleet, 0xBEEF_0000 + k, k);
        assert!(trace::retained_count() <= 8, "retention budget violated mid-load");
    }
    assert_eq!(trace::retained_count(), 8, "ring holds exactly its budget after 20 traces");
    // Oldest evicted first: only the last 8 ids survive.
    for k in 0..20u64 {
        let id = 0xBEEF_0000 + k;
        assert_eq!(trace::retained_trace(id).is_some(), k >= 12, "trace {k} eviction order");
    }
    trace::set_retention(64);
    igcn::obs::set_enabled(false);
}

#[test]
fn fast_requests_are_discarded_and_errored_kept_under_a_real_threshold() {
    let _s = serial();
    igcn::obs::set_enabled(true);
    // A threshold no local inference will cross: fast + ok ⇒ discard.
    trace::set_slow_threshold_ns(u64::MAX);
    trace::set_retention(64);
    trace::reset_traces();

    let fleet = fleet(24);
    let x = SparseFeatures::random(fleet.graph().num_nodes(), DIM, 0.3, 9);
    let root = trace::root_span(0xFA57, "request");
    let request = InferenceRequest::new(x).with_id(1).with_trace(root.ctx());
    fleet.infer(&request).expect("fleet serves");
    root.finish("ok");
    assert!(
        trace::retained_trace(0xFA57).is_none(),
        "a fast ok request must not be retained (flat counters only)"
    );

    // An errored request is kept regardless of speed.
    let failed = trace::root_span(0xFA58, "request");
    failed.finish("failed");
    let kept = trace::retained_trace(0xFA58).expect("errored traces always retain");
    assert_eq!(kept.status, "failed");

    assert_eq!(trace::in_progress_count(), 0);
    trace::set_slow_threshold_ns(0);
    igcn::obs::set_enabled(false);
}

/// Two islands that fit one, joined by an edge: the island the update
/// forms refills one of the two slots it empties, and the last island
/// takes the other; no hub changes. The recompose's span and counters
/// say so, and with telemetry off the counters do not move.
#[test]
fn an_updates_recompose_span_and_counters_carry_its_slot_moves() {
    let _s = serial();
    let g = HubIslandConfig::new(300, 12).noise_fraction(0.05).generate(9).graph;
    let engine = IGcnEngine::builder(g).build().expect("generated graphs are loop-free");
    let (islands, c_max) = (engine.partition().islands(), engine.partition().c_max());
    let (i, j) = (0..islands.len())
        .flat_map(|i| (i + 1..islands.len() - 1).map(move |j| (i, j)))
        .find(|&(i, j)| islands[i].len() + islands[j].len() <= c_max)
        .expect("two islands that fit one");
    let join = GraphUpdate::add_edges(vec![(islands[i].nodes[0], islands[j].nodes[0])]);
    let names = ["slots_refilled", "islands_moved", "hubs_moved", "inter_hub_pairs_patched"];
    let counts = || names.map(|name| igcn::obs::counter(&format!("engine_update_{name}")).get());

    igcn::obs::set_enabled(false);
    let before = counts();
    engine.clone().apply_update(join.clone()).expect("the join applies");
    assert_eq!(counts(), before, "telemetry off: no counter moves");

    igcn::obs::set_enabled(true);
    trace::set_slow_threshold_ns(0);
    trace::set_retention(64);
    trace::reset_traces();
    let root = trace::root_span(0x5107_0001, "update");
    {
        let _ambient = trace::with_ambient(root.ctx());
        engine.clone().apply_update(join).expect("the join applies");
    }
    root.finish("ok");
    let expected = [1, 1, 0, 0];
    let ticked = counts();
    for ((name, (before, after)), expected) in
        names.iter().zip(before.iter().zip(ticked)).zip(expected)
    {
        assert_eq!(after - before, expected, "engine_update_{name}");
    }
    let tree = trace::retained_trace(0x5107_0001).expect("the update's trace is retained");
    let span = tree.spans.iter().find(|s| s.name == "layout_recompose").expect("a recompose span");
    for (name, expected) in names.iter().zip(expected) {
        assert_eq!(tag(span, name), Some(expected.to_string().as_str()), "{name}");
    }
    igcn::obs::set_enabled(false);
}
