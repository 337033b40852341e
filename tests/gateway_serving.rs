//! End-to-end gateway serving: both wire protocols against both boot
//! paths, plus the gateway's flow-control contracts.
//!
//! * **Bit-identity** — an inference answered over HTTP/1.1 and over
//!   the binary framing must be bit-identical to a direct
//!   [`Accelerator::infer`] call on the same backend, whether that
//!   backend was warm-started from a single-engine snapshot or booted
//!   as a sharded fleet by re-sharding the fleet's coordinator snapshot.
//! * **Deadline cancellation** — a request whose deadline expires
//!   while it waits in the (one) serving queue is answered 504 / binary
//!   `Deadline` by the worker that pops it and is *never handed to the
//!   backend* (the `dispatched` counter and the backend's own call
//!   count prove it).
//! * **Shed, not block** — when the worker is occupied and the queue
//!   is at capacity, a new request is refused immediately (HTTP 429 /
//!   binary `Shed`) on both protocols instead of blocking the IO
//!   thread.
//! * **Graceful drain** — `Gateway::shutdown` waits for in-flight
//!   requests to complete and flushes their responses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use igcn_core::accel::{Accelerator, ExecReport, InferenceRequest, InferenceResponse};
use igcn_core::{CoreError, ExecConfig, IGcnEngine};
use igcn_gateway::{BinaryClient, Gateway, GatewayConfig, HttpClient, InferReply};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_serve::ServingConfig;
use igcn_shard::ShardedEngine;
use igcn_store::Snapshot;

const N: usize = 220;
const DIM: usize = 12;

fn prepared_engine() -> IGcnEngine {
    let data = HubIslandConfig::new(N, 9).noise_fraction(0.02).generate(31);
    let mut engine =
        IGcnEngine::builder(data.graph).build().expect("generated graphs are loop-free");
    let model = GnnModel::gcn(DIM, 8, 6);
    let weights = ModelWeights::glorot(&model, 7);
    engine.prepare(&model, &weights).expect("weights match the model");
    engine
}

fn features(seed: u64) -> SparseFeatures {
    SparseFeatures::random(N, DIM, 0.25, seed)
}

/// A scratch directory under the target-adjacent tmp, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("igcn-gwtest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the two clients against `gateway` and asserts both replies are
/// bit-identical to `direct`.
fn assert_both_protocols_match(gateway: &Gateway, direct: &InferenceResponse, seed: u64) {
    let addr = gateway.local_addr();
    let mut http = HttpClient::connect(addr).expect("http connect");
    match http.infer(direct.id, None, &features(seed)).expect("http infer") {
        InferReply::Output { id, output } => {
            assert_eq!(id, direct.id);
            assert_eq!(output, direct.output, "HTTP reply must be bit-identical");
        }
        other => panic!("expected an output over HTTP, got {other:?}"),
    }
    let mut binary = BinaryClient::connect(addr).expect("binary connect");
    match binary.infer(direct.id, None, &features(seed)).expect("binary infer") {
        InferReply::Output { id, output } => {
            assert_eq!(id, direct.id);
            assert_eq!(output, direct.output, "binary reply must be bit-identical");
        }
        other => panic!("expected an output over the wire, got {other:?}"),
    }
}

#[test]
fn snapshot_booted_backend_serves_both_protocols_bit_identically() {
    let dir = TempDir::new("snap");
    let engine = prepared_engine();
    let snap_path = dir.0.join("engine.snap");
    Snapshot::capture(&engine).write_with_checksum(&snap_path).expect("snapshot writes");

    // Boot the serving backend from the snapshot alone.
    let warmed = Snapshot::read(&snap_path)
        .expect("snapshot reads")
        .warm_engine(ExecConfig::default())
        .expect("warm boot");
    let direct = warmed.infer(&InferenceRequest::new(features(101)).with_id(5)).expect("prepared");

    let gateway = Gateway::serve(Arc::new(warmed), "127.0.0.1:0", GatewayConfig::default())
        .expect("gateway binds");
    assert_both_protocols_match(&gateway, &direct, 101);
    let stats = gateway.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.dispatched, 2);
    gateway.shutdown();
}

#[test]
fn manifest_booted_fleet_serves_both_protocols_bit_identically() {
    let dir = TempDir::new("fleet");
    let engine = prepared_engine();
    let direct = engine.infer(&InferenceRequest::new(features(202)).with_id(9)).expect("prepared");

    // Partition into a 3-shard fleet, persist it as its coordinator
    // snapshot, boot a fleet from that file alone by re-sharding the
    // warm engine, and serve the fleet through the gateway.
    let sharded = ShardedEngine::from_engine(&engine, 3).expect("partitions");
    let snap_path = dir.0.join("fleet.snap");
    sharded.snapshot().write(&snap_path).expect("snapshot writes");
    drop(sharded);
    let warm = Snapshot::read(&snap_path)
        .expect("snapshot reads")
        .warm_engine(ExecConfig::default())
        .expect("warm boot");
    let fleet = ShardedEngine::from_engine(&warm, 3).expect("fleet boots");

    let gateway = Gateway::serve(Arc::new(fleet), "127.0.0.1:0", GatewayConfig::default())
        .expect("gateway binds");
    assert_both_protocols_match(&gateway, &direct, 202);
    assert_eq!(gateway.stats().completed, 2);
    gateway.shutdown();
}

/// An `Accelerator` whose `infer` blocks until the gate opens —
/// deterministic worker occupancy for the flow-control tests.
struct GatedBackend {
    inner: IGcnEngine,
    open: Mutex<bool>,
    cv: Condvar,
    infer_calls: AtomicU64,
}

impl GatedBackend {
    fn new(inner: IGcnEngine) -> Arc<GatedBackend> {
        Arc::new(GatedBackend {
            inner,
            open: Mutex::new(false),
            cv: Condvar::new(),
            infer_calls: AtomicU64::new(0),
        })
    }

    fn open_gate(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.cv.notify_all();
    }

    fn wait_for_gate(&self) {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.cv.wait(open).expect("gate lock");
        }
    }
}

impl Accelerator for GatedBackend {
    fn name(&self) -> String {
        format!("gated({})", self.inner.name())
    }

    fn graph(&self) -> &igcn_graph::CsrGraph {
        self.inner.graph()
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        self.inner.prepare(model, weights)
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        self.infer_calls.fetch_add(1, Ordering::SeqCst);
        self.wait_for_gate();
        self.inner.infer(request)
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        self.inner.report(request)
    }
}

/// A serving tier with one worker behind a queue `queue_capacity` deep:
/// with the backend's gate shut, the first request occupies the worker
/// and the rest stay queued.
fn one_worker_serving(queue_capacity: usize) -> ServingConfig {
    ServingConfig { num_workers: 1, queue_capacity, ..ServingConfig::default() }
}

/// Blocks until `ready` holds (the flow-control tests wait on what the
/// gateway reports, not on the clock).
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sends one binary inference on its own thread and returns the reply.
fn spawn_infer(
    addr: std::net::SocketAddr,
    id: u64,
    deadline_ms: Option<u64>,
    seed: u64,
) -> std::thread::JoinHandle<InferReply> {
    std::thread::spawn(move || {
        let mut client = BinaryClient::connect(addr).expect("binary connect");
        client.infer(id, deadline_ms, &features(seed)).expect("wire round-trip")
    })
}

#[test]
fn expired_deadlines_are_answered_without_dispatch() {
    let backend = GatedBackend::new(prepared_engine());
    let cfg = GatewayConfig::default().with_serving(one_worker_serving(4));
    let gateway = Gateway::serve(
        Arc::<GatedBackend>::clone(&backend) as Arc<dyn Accelerator>,
        "127.0.0.1:0",
        cfg,
    )
    .expect("gateway binds");
    let addr = gateway.local_addr();

    // A blocks in the worker; B, C and D — D with a deadline that
    // lapses long before the worker can come back for it — sit behind
    // it in the one queue.
    let a = spawn_infer(addr, 1, None, 301);
    wait_until("A is in the backend", || backend.infer_calls.load(Ordering::SeqCst) == 1);
    let b = spawn_infer(addr, 2, None, 302);
    let c = spawn_infer(addr, 3, None, 303);
    let d = spawn_infer(addr, 4, Some(50), 304);
    wait_until("B, C and D are queued", || gateway.stats().serving.depth == 3);

    // Let D's deadline lapse while the worker is still wedged, then
    // release the backend.
    std::thread::sleep(Duration::from_millis(150));
    let stats = gateway.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(
        stats.dispatched, 1,
        "only the worker's request is dispatched while the gate is shut"
    );
    assert_eq!(stats.deadline_expired, 0, "a deadline is checked at the pop, not by a timer");
    backend.open_gate();

    for handle in [a, b, c] {
        match handle.join().expect("client thread") {
            InferReply::Output { .. } => {}
            other => panic!("expected an output, got {other:?}"),
        }
    }
    match d.join().expect("client thread") {
        InferReply::DeadlineExceeded => {}
        other => panic!("expected a deadline reply, got {other:?}"),
    }

    let stats = gateway.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.deadline_expired, 1, "exactly one request expired in the queue");
    assert_eq!(stats.serving.expired, 1, "and the serving tier counted it at the pop");
    assert_eq!(stats.dispatched, 3, "the expired request was never handed to the backend");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.inflight, 0);
    assert_eq!(backend.infer_calls.load(Ordering::SeqCst), 3, "the backend never saw request D");
    gateway.shutdown();
}

#[test]
fn saturated_gateway_sheds_immediately_instead_of_blocking() {
    let backend = GatedBackend::new(prepared_engine());
    let cfg = GatewayConfig::default()
        .with_serving(one_worker_serving(1))
        .with_max_estimated_wait(Duration::from_secs(3600));
    let gateway = Gateway::serve(
        Arc::<GatedBackend>::clone(&backend) as Arc<dyn Accelerator>,
        "127.0.0.1:0",
        cfg,
    )
    .expect("gateway binds");
    let addr = gateway.local_addr();

    // Fill the system: one request in the worker, one in the one-deep
    // queue.
    let in_worker = spawn_infer(addr, 10, None, 400);
    wait_until("the worker is occupied", || backend.infer_calls.load(Ordering::SeqCst) == 1);
    let queued = spawn_infer(addr, 11, None, 401);
    wait_until("the queue is full", || gateway.stats().serving.depth == 1);

    // A full system answers at once on both protocols — shed, not
    // queued behind the wedge.
    let (binary_trace, http_trace) = (0x5ED_0000_0000_0099u64, 0x5ED_0000_0000_0098u64);
    let t0 = Instant::now();
    let mut binary = BinaryClient::connect(addr).expect("binary connect");
    match binary.infer_traced(99, None, &features(500), binary_trace).expect("wire round-trip") {
        (InferReply::Shed, echoed) => assert_eq!(echoed, binary_trace),
        other => panic!("expected a binary shed, got {other:?}"),
    }
    let mut http = HttpClient::connect(addr).expect("http connect");
    match http.infer_traced(98, None, &features(501), http_trace).expect("http round-trip") {
        (InferReply::Shed, echoed) => assert_eq!(echoed, http_trace),
        other => panic!("expected an HTTP 429, got {other:?}"),
    }
    let shed_latency = t0.elapsed();
    assert!(
        shed_latency < Duration::from_secs(2),
        "shedding must not wait for the wedged worker (took {shed_latency:?})"
    );
    let stats = gateway.stats();
    assert_eq!((stats.shed, stats.shed_queue_full), (2, 2));
    assert_eq!(stats.admitted, 2, "a shed request was never in the queue");

    // A shed request still leaves its flight-recorder row: the root span
    // appends it when it finishes, whatever the status, with the decode
    // stage the request did pay for.
    let (status, flight, _) = http.get_traced("/debug/flight", 0).expect("/debug/flight serves");
    assert_eq!(status, 200);
    for (trace, id, protocol) in [(binary_trace, 99, "binary"), (http_trace, 98, "http")] {
        let row = format!(
            "\"trace_id\":\"{trace:016x}\",\"request_id\":{id},\"protocol\":\"{protocol}\",\
             \"status\":\"shed\",\"stages_us\":{{\"gateway_decode_{protocol}\":"
        );
        assert!(flight.contains(&row), "/debug/flight has no shed row {row} in {flight}");
    }

    backend.open_gate();
    for handle in [in_worker, queued] {
        match handle.join().expect("client thread") {
            InferReply::Output { .. } => {}
            other => panic!("expected an output after the gate opened, got {other:?}"),
        }
    }
    assert_eq!(gateway.stats().completed, 2);
    gateway.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let backend = GatedBackend::new(prepared_engine());
    let direct_engine = prepared_engine();
    let direct =
        direct_engine.infer(&InferenceRequest::new(features(600)).with_id(77)).expect("prepared");
    let cfg = GatewayConfig::default().with_serving(one_worker_serving(1));
    let gateway = Gateway::serve(
        Arc::<GatedBackend>::clone(&backend) as Arc<dyn Accelerator>,
        "127.0.0.1:0",
        cfg,
    )
    .expect("gateway binds");
    let addr = gateway.local_addr();

    // One request wedged in the worker, then shut down while it is
    // still running; open the gate shortly after so the drain has
    // something to wait for.
    let client = spawn_infer(addr, 77, None, 600);
    while backend.infer_calls.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let opener = {
        let backend = Arc::clone(&backend);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            backend.open_gate();
        })
    };
    gateway.shutdown(); // blocks until the in-flight response is flushed

    match client.join().expect("client thread") {
        InferReply::Output { id, output } => {
            assert_eq!(id, 77);
            assert_eq!(output, direct.output, "drained reply must still be bit-identical");
        }
        other => panic!("expected the drained output, got {other:?}"),
    }
    opener.join().expect("opener thread");
}
