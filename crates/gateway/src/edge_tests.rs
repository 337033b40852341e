//! The gateway's event loop at its edges, over a live gateway: that it
//! sleeps when there is nothing to do, wakes every thread that is
//! handed something, and comes out of what a hostile or unlucky peer
//! can do to a connection — reset mid-frame, gone before its reply,
//! stalled mid-request, not reading a reply it asked for — with nothing
//! in flight, its counters reconciled and every trace finished.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use igcn_core::accel::{Accelerator, ExecReport, InferenceRequest, InferenceResponse};
use igcn_core::CoreError;
use igcn_linalg::DenseMatrix;

use super::tests::{backend, features, read_one_frame};
use super::*;

/// Long enough that a loop spinning on a level-triggered event, or
/// ticking on a timer, would have shown in the wakeup counter.
const QUIET: Duration = Duration::from_millis(300);

fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The wakeup counter once it has stopped moving, i.e. once the IO
/// threads have dealt with whatever the test just did to them — which
/// they must, or this times out: a loop that never settles is spinning.
fn settled_wakeups(gateway: &Gateway) -> u64 {
    let start = Instant::now();
    let mut last = gateway.stats().io_wakeups;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = gateway.stats().io_wakeups;
        if now == last {
            return now;
        }
        assert!(start.elapsed() < Duration::from_secs(30), "the IO loop never goes quiet");
        last = now;
    }
}

/// What every edge case must leave behind: nothing in flight, and every
/// admitted request either answered or lost to a connection that died
/// before its reply — `died_first` of them.
fn assert_reconciles(gateway: &Gateway, died_first: u64) {
    let s = gateway.stats();
    assert_eq!(s.inflight, 0, "requests left in flight: {s:?}");
    assert_eq!(
        s.admitted - (s.completed + s.failed + s.deadline_expired),
        died_first,
        "admitted requests must be answered or belong to a dead connection: {s:?}"
    );
}

/// How the root span of `trace` finished, if it has — a finished root
/// leaves a flight-recorder row, whatever its status, and a trace with
/// a row is no longer in progress.
fn finished_as(trace: u64) -> Option<&'static str> {
    igcn_obs::flight_entries().iter().rev().find(|e| e.trace_id == trace).map(|e| e.status)
}

fn infer_frame(id: u64, seed: u64, trace: u64) -> Vec<u8> {
    wire::encode_infer(id, 0, &features(seed), trace)
}

/// A raw connection that gives up instead of hanging when the gateway
/// fails to answer — which, for a loop with no timer, is what a missed
/// wake-up looks like.
fn raw_connection(gateway: &Gateway) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// The next `count` frames on `stream`, which may arrive back to back.
fn read_frames(stream: &mut std::net::TcpStream, count: usize) -> Vec<wire::Frame> {
    let (mut buf, mut chunk, mut frames) = (Vec::new(), [0u8; 4096], Vec::new());
    while frames.len() < count {
        while let wire::Decoded::Frame(frame, _, used) = wire::decode(&buf) {
            frames.push(frame);
            buf.drain(..used);
        }
        if frames.len() < count {
            let n = stream.read(&mut chunk).expect("a reply within the read timeout");
            assert!(n > 0, "the gateway closed the connection after {frames:?}");
            buf.extend_from_slice(&chunk[..n]);
        }
    }
    frames
}

/// Wraps a backend so that `infer` blocks until the gate opens, and
/// answers with `rows × 2` zeros if told to (a reply of any size from a
/// request of none).
struct Gated {
    inner: Arc<dyn Accelerator>,
    open: Mutex<bool>,
    opened: Condvar,
    entered: AtomicU64,
    reply_rows: Option<usize>,
}

impl Gated {
    fn new(open: bool, reply_rows: Option<usize>) -> Arc<Gated> {
        Arc::new(Gated {
            inner: backend(),
            open: Mutex::new(open),
            opened: Condvar::new(),
            entered: AtomicU64::new(0),
            reply_rows,
        })
    }

    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl Accelerator for Gated {
    fn name(&self) -> String {
        "gated".to_string()
    }
    fn graph(&self) -> &igcn_graph::CsrGraph {
        self.inner.graph()
    }
    fn prepare(
        &mut self,
        _: &igcn_gnn::GnnModel,
        _: &igcn_gnn::ModelWeights,
    ) -> Result<(), CoreError> {
        Ok(())
    }
    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        match self.reply_rows {
            None => self.inner.infer(request),
            Some(rows) => Ok(InferenceResponse {
                id: request.id,
                output: DenseMatrix::zeros(rows, 2),
                report: Default::default(),
            }),
        }
    }
    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        self.inner.report(request)
    }
}

#[test]
fn an_idle_gateway_makes_no_wakeups_and_a_round_trip_a_handful() {
    let cfg = GatewayConfig::default().with_io_threads(2);
    let gateway = Gateway::serve(backend(), "127.0.0.1:0", cfg).unwrap();
    let addr = gateway.local_addr();
    // Connections on both IO threads, both protocols, warmed and kept
    // open: idle means connected clients with nothing to say.
    let mut binary = BinaryClient::connect(addr).unwrap();
    let mut http = HttpClient::connect(addr).unwrap();
    assert!(matches!(binary.infer(1, None, &features(1)).unwrap(), InferReply::Output { .. }));
    assert!(matches!(http.infer(2, None, &features(1)).unwrap(), InferReply::Output { .. }));

    let idle = settled_wakeups(&gateway);
    std::thread::sleep(QUIET);
    assert_eq!(gateway.stats().io_wakeups, idle, "an idle gateway must not wake up");

    // One round trip on a warm connection: the request's bytes, its
    // completion, and little else.
    assert!(matches!(binary.infer(3, None, &features(2)).unwrap(), InferReply::Output { .. }));
    let cost = settled_wakeups(&gateway) - idle;
    assert!((2..=8).contains(&cost), "a binary round trip cost {cost} wakeups");

    // The counter is on both scrape endpoints.
    let (_, metrics) = http.get("/metrics").unwrap();
    let line = metrics
        .lines()
        .find_map(|l| l.strip_prefix("igcn_gateway_io_wakeups_total "))
        .expect("/metrics carries io_wakeups_total");
    assert!(line.parse::<u64>().unwrap() > idle);
    let (_, stats) = http.get("/stats").unwrap();
    let doc = JsonValue::parse(&stats).unwrap();
    assert!(doc.get("gateway").and_then(|g| g.get("io_wakeups")).is_some());
    assert_reconciles(&gateway, 0);
    gateway.shutdown();
}

#[test]
fn a_second_io_thread_adopts_a_connection_without_waiting() {
    let cfg = GatewayConfig::default().with_io_threads(3);
    let gateway = Gateway::serve(backend(), "127.0.0.1:0", cfg).unwrap();
    // Connections go round the threads in turn: of these six, four
    // belong to threads that did not accept them and sleep with no
    // timeout. Each is answered only if its thread was woken for the
    // hand-over.
    let mut streams: Vec<_> = (0..6).map(|_| raw_connection(&gateway)).collect();
    for (i, stream) in streams.iter_mut().enumerate() {
        stream.write_all(&wire::encode(&wire::Frame::HealthCheck { id: i as u64 })).unwrap();
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        match read_one_frame(stream) {
            wire::Frame::Health { id, state, .. } => {
                assert_eq!((id, state), (i as u64, HealthState::Ready));
            }
            other => panic!("expected a Health frame, got {other:?}"),
        }
    }
    assert_eq!(gateway.stats().connections, 6);
    drop(streams);
    // Shutdown wakes all three, too: it returns.
    gateway.shutdown();
}

#[test]
fn a_peer_reset_mid_frame_leaves_nothing_behind() {
    let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
    let mut stream = raw_connection(&gateway);
    // A health check whose reply is never read — closing a socket with
    // unread bytes is what makes the kernel send a reset, not a FIN —
    // then half an inference frame.
    stream.write_all(&wire::encode(&wire::Frame::HealthCheck { id: 1 })).unwrap();
    wait_until("the health reply is out", || gateway.stats().response_bytes_binary > 0);
    let frame = infer_frame(2, 3, 0x0E_D6E0_0001);
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(stream);

    // The loop notices, forgets the connection and goes back to sleep
    // (a dead socket left registered would keep it spinning).
    let after = settled_wakeups(&gateway);
    std::thread::sleep(QUIET);
    assert_eq!(gateway.stats().io_wakeups, after);
    let s = gateway.stats();
    assert_eq!((s.admitted, s.protocol_errors), (0, 0), "half a frame is not a request");
    assert_eq!(finished_as(0x0E_D6E0_0001), None, "and never began a trace");
    assert_reconciles(&gateway, 0);

    // And still serves.
    let mut client = BinaryClient::connect(gateway.local_addr()).unwrap();
    assert!(matches!(client.infer(3, None, &features(3)).unwrap(), InferReply::Output { .. }));
    assert_reconciles(&gateway, 0);
    gateway.shutdown();
}

#[test]
fn a_completion_that_lands_on_a_dead_connection_aborts_its_trace() {
    let gated = Gated::new(false, None);
    let gateway = Gateway::serve(
        Arc::<Gated>::clone(&gated) as Arc<dyn Accelerator>,
        "127.0.0.1:0",
        GatewayConfig::default(),
    )
    .unwrap();
    let trace = 0x0E_D6E0_0002;
    let mut stream = raw_connection(&gateway);
    // As above: an unread reply turns the close into a reset.
    stream.write_all(&wire::encode(&wire::Frame::HealthCheck { id: 1 })).unwrap();
    wait_until("the health reply is out", || gateway.stats().response_bytes_binary > 0);
    stream.write_all(&infer_frame(2, 4, trace)).unwrap();
    wait_until("the request is in the backend", || gated.entered.load(Ordering::SeqCst) == 1);
    assert_eq!(gateway.stats().inflight, 1);
    drop(stream);

    // The connection dies first: its request leaves the gauge with it…
    wait_until("the reset is noticed", || gateway.stats().inflight == 0);
    assert_eq!(finished_as(trace), None, "the request is still running");
    // …and its completion, when it comes, finds nobody home.
    gated.open_gate();
    wait_until("the orphaned trace finishes", || finished_as(trace).is_some());
    assert_eq!(finished_as(trace), Some("aborted"));
    let s = gateway.stats();
    assert_eq!((s.admitted, s.dispatched, s.completed, s.failed), (1, 1, 0, 0));
    assert_reconciles(&gateway, 1);

    // A peer that merely half-closes is still owed its reply.
    let trace = 0x0E_D6E0_0003;
    let mut stream = raw_connection(&gateway);
    stream.write_all(&infer_frame(5, 4, trace)).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(matches!(read_one_frame(&mut stream), wire::Frame::Ok { id: 5, .. }));
    assert_eq!(finished_as(trace), Some("ok"));
    assert_reconciles(&gateway, 1);
    gateway.shutdown();
}

#[test]
fn a_request_that_stalls_is_timed_out_and_only_such_a_request() {
    let idle = Duration::from_millis(250);
    let gateway =
        Gateway::serve_with_request_idle(backend(), "127.0.0.1:0", GatewayConfig::default(), idle)
            .unwrap();
    // A keep-alive connection with no request under way: no timer runs
    // for it, however long it says nothing.
    let mut patient = BinaryClient::connect(gateway.local_addr()).unwrap();
    assert_eq!(patient.health().unwrap().0, HealthState::Ready);

    // Slow loris, HTTP: a head that never ends.
    let started = Instant::now();
    let mut loris = raw_connection(&gateway);
    loris.write_all(b"POST /v1/infer HTTP/1.1\r\nContent-Le").unwrap();
    let mut reply = Vec::new();
    loris.read_to_end(&mut reply).unwrap(); // answered, then closed
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 408 Request Timeout"), "got {text}");
    assert!(text.contains("timed out"), "got {text}");
    assert!(started.elapsed() >= idle, "timed out early: {:?}", started.elapsed());

    // Binary: a body that trickles — each byte buys another `idle` —
    // and then stops.
    let frame = infer_frame(1, 5, 0);
    let mut loris = raw_connection(&gateway);
    loris.write_all(&frame[..wire::HEADER_LEN + 8]).unwrap();
    let started = Instant::now();
    for byte in &frame[wire::HEADER_LEN + 8..wire::HEADER_LEN + 12] {
        std::thread::sleep(idle / 2);
        loris.write_all(std::slice::from_ref(byte)).unwrap();
    }
    match read_one_frame(&mut loris) {
        wire::Frame::Err { message, .. } => assert!(message.contains("timed out"), "{message}"),
        other => panic!("expected an Err frame, got {other:?}"),
    }
    assert!(started.elapsed() >= idle * 3, "a trickling peer was cut off mid-trickle");

    let s = gateway.stats();
    assert_eq!((s.admitted, s.protocol_errors), (0, 2));
    assert_reconciles(&gateway, 0);
    // The timers are gone with the connections they ran for…
    let after = settled_wakeups(&gateway);
    std::thread::sleep(idle * 2);
    assert_eq!(gateway.stats().io_wakeups, after);
    // …and the patient connection was never on one.
    assert_eq!(patient.health().unwrap().0, HealthState::Ready);
    gateway.shutdown();
}

#[test]
fn a_large_reply_to_a_stalled_reader_waits_without_spinning_and_completes() {
    // 3 M rows × 2 columns: a 24 MB frame, more than loopback's send
    // and receive buffers hold between them.
    const ROWS: usize = 3_000_000;
    let gated = Gated::new(true, Some(ROWS));
    let gateway =
        Gateway::serve(gated as Arc<dyn Accelerator>, "127.0.0.1:0", GatewayConfig::default())
            .unwrap();
    let trace = 0x0E_D6E0_0004;
    let mut stream = raw_connection(&gateway);
    stream.write_all(&infer_frame(9, 6, trace)).unwrap();
    // The reply is built and written as far as the socket takes it; the
    // reader is not reading.
    wait_until("the reply is queued", || gateway.stats().completed == 1);
    let stalled = settled_wakeups(&gateway);
    std::thread::sleep(QUIET);
    assert_eq!(
        gateway.stats().io_wakeups,
        stalled,
        "a full send buffer is not writable: the loop must sleep until the peer reads"
    );

    // The reader drains: the rest follows, and it is all there.
    match read_one_frame(&mut stream) {
        wire::Frame::Ok { id, output } => {
            assert_eq!((id, output.rows(), output.cols()), (9, ROWS, 2));
            assert!(output.as_slice().iter().all(|&v| v == 0.0));
        }
        other => panic!("expected the output, got {other:?}"),
    }
    assert!(gateway.stats().io_wakeups > stalled, "the rest went out on writable events");
    assert_eq!(finished_as(trace), Some("ok"));
    assert_reconciles(&gateway, 0);
    // Flushed, the connection is watched for reads only: quiet again.
    let after = settled_wakeups(&gateway);
    std::thread::sleep(QUIET);
    assert_eq!(gateway.stats().io_wakeups, after);
    gateway.shutdown();
}

#[test]
fn a_draining_shutdown_sleeps_too() {
    let gated = Gated::new(false, None);
    let gateway = Gateway::serve(
        Arc::<Gated>::clone(&gated) as Arc<dyn Accelerator>,
        "127.0.0.1:0",
        GatewayConfig::default(),
    )
    .unwrap();
    let addr = gateway.local_addr();
    let mut stream = raw_connection(&gateway);
    stream.write_all(&infer_frame(1, 7, 0)).unwrap();
    wait_until("the request is in the backend", || gated.entered.load(Ordering::SeqCst) == 1);

    // Shut down with that request still running: the drain waits for it.
    let inner = Arc::clone(&gateway.inner);
    let shutdown = std::thread::spawn(move || gateway.shutdown());
    wait_until("the drain has begun", || inner.health().0 == HealthState::Draining);
    // Neither a peer that knocks at the closed door nor one that goes on
    // talking on a connection that is no longer read gets the loop
    // spinning while it waits.
    let _ = std::net::TcpStream::connect(addr);
    stream.write_all(&infer_frame(2, 7, 0)).unwrap();
    let wakeups = || inner.counters.io_wakeups.load(Ordering::Relaxed);
    std::thread::sleep(QUIET);
    let draining = wakeups();
    std::thread::sleep(QUIET);
    assert_eq!(wakeups(), draining, "a draining gateway must sleep until its replies are due");
    assert!(!shutdown.is_finished(), "the drain ended with a request in flight");

    gated.open_gate();
    assert!(matches!(read_one_frame(&mut stream), wire::Frame::Ok { id: 1, .. }));
    shutdown.join().unwrap();
    let s = inner.stats();
    assert_eq!((s.admitted, s.completed, s.inflight), (1, 1, 0), "the second frame was never read");
}

#[test]
fn an_accept_that_keeps_failing_backs_off_instead_of_spinning() {
    let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
    let addr = gateway.local_addr();
    let mut established = BinaryClient::connect(addr).unwrap();
    assert_eq!(established.health().unwrap().0, HealthState::Ready);

    // The process is "out of descriptors": every accept fails, for as
    // long as the fault is armed — on this gateway only.
    let fault = igcn_fail::FailGuard::setup();
    let point = format!("gateway::accept@{addr}");
    fault.cfg(point.as_str(), "always:return").unwrap();
    // A client knocks: its connection completes in the kernel's backlog
    // and stays there, keeping the listener readable.
    let mut waiting = raw_connection(&gateway);
    waiting.write_all(&wire::encode(&wire::Frame::HealthCheck { id: 7 })).unwrap();
    wait_until("the failing accept is counted", || gateway.stats().accept_errors > 0);

    // A level-triggered listener left in the poll would report that
    // backlog again at once, for ever; backed off, the loop wakes once
    // per retry — single digits in the 300 ms, and however long a
    // stalled box makes them, no more than the back-off allows.
    let (before, started) = (gateway.stats(), Instant::now());
    std::thread::sleep(QUIET);
    let (after, quiet) = (gateway.stats(), started.elapsed());
    let (wakeups, retries) =
        (after.io_wakeups - before.io_wakeups, after.accept_errors - before.accept_errors);
    let allowed = (quiet.as_millis() / ACCEPT_BACKOFF.as_millis()) as u64 + 2;
    assert!(wakeups <= allowed, "{wakeups} wakeups in {quiet:?} with accept failing");
    assert!((1..=allowed).contains(&retries), "{retries} retries in {quiet:?}");
    assert_eq!(after.connections, 1, "nothing was accepted meanwhile");
    // Established connections are served all the while.
    assert!(matches!(established.infer(1, None, &features(8)).unwrap(), InferReply::Output { .. }));
    // The fault cleared, clients can connect again — to /metrics, which
    // carries the counter, among others.
    fault.remove(&point);
    let (_, metrics) = HttpClient::connect(addr).unwrap().get("/metrics").unwrap();
    assert!(
        metrics.lines().any(|l| l
            .strip_prefix("igcn_gateway_accept_errors_total ")
            .is_some_and(|v| v.parse::<u64>().unwrap() >= after.accept_errors)),
        "/metrics carries accept_errors_total"
    );
    // The client that waited in the backlog was accepted with it, and is
    // answered; so is a new one.
    assert!(matches!(read_one_frame(&mut waiting), wire::Frame::Health { id: 7, .. }));
    let mut fresh = BinaryClient::connect(addr).unwrap();
    assert_eq!(fresh.health().unwrap().0, HealthState::Ready);
    // And the listener is back in the poll: quiet again.
    let settled = settled_wakeups(&gateway);
    std::thread::sleep(QUIET);
    assert_eq!(gateway.stats().io_wakeups, settled, "the back-off timer is gone");
    drop(fault);
    gateway.shutdown();
}

#[test]
fn one_failed_accept_is_retried_and_the_client_that_waited_is_served() {
    let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
    let addr = gateway.local_addr();
    let established = raw_connection(&gateway);
    wait_until("it is accepted", || gateway.stats().connections == 1);

    // Exactly one accept fails — the descriptor table was full for a
    // moment — and the listener starts to back off.
    let fault = igcn_fail::FailGuard::setup();
    fault.cfg(format!("gateway::accept@{addr}"), "once:return").unwrap();
    let mut waiting = raw_connection(&gateway);
    waiting.write_all(&wire::encode(&wire::Frame::HealthCheck { id: 3 })).unwrap();
    wait_until("the failing accept is counted", || gateway.stats().accept_errors == 1);
    // A connection closes — a descriptor has come free, which ends the
    // back-off at once — and the retry finds the client in the backlog.
    drop(established);
    assert!(matches!(read_one_frame(&mut waiting), wire::Frame::Health { id: 3, .. }));
    let s = gateway.stats();
    assert_eq!((s.accept_errors, s.connections), (1, 2));
    // The listener is back in the poll, and no timer is left running.
    let settled = settled_wakeups(&gateway);
    std::thread::sleep(QUIET);
    assert_eq!(gateway.stats().io_wakeups, settled);
    drop(fault);
    gateway.shutdown();
}

#[test]
fn six_pipelined_requests_are_all_answered_in_a_handful_of_wakeups() {
    // One worker: the requests behind the first are a backlog it works
    // off one by one, posting each completion as it is made.
    let serving = ServingConfig::default().with_workers(1);
    let cfg = GatewayConfig::default().with_serving(serving);
    let gated = Gated::new(false, None);
    let gateway =
        Gateway::serve(Arc::<Gated>::clone(&gated) as Arc<dyn Accelerator>, "127.0.0.1:0", cfg)
            .unwrap();
    let mut stream = raw_connection(&gateway);
    wait_until("the connection is adopted", || gateway.stats().connections == 1);
    let idle = settled_wakeups(&gateway);

    let mut frames = Vec::new();
    for id in 0..6 {
        frames.extend_from_slice(&infer_frame(id, 9, 0));
    }
    stream.write_all(&frames).unwrap();
    wait_until("all six are admitted", || gateway.stats().admitted == 6);
    gated.open_gate();

    // Every reply, in completion order, on the one connection.
    let ids: Vec<u64> = read_frames(&mut stream, 6)
        .into_iter()
        .map(|frame| match frame {
            wire::Frame::Ok { id, .. } => id,
            other => panic!("expected an output, got {other:?}"),
        })
        .collect();
    assert_eq!(ids, [0, 1, 2, 3, 4, 5]);
    // The request bytes (one or two segments), and the completions:
    // at most one wakeup each — two that land while the IO thread is
    // busy share one — and no read is issued for any of them.
    let cost = settled_wakeups(&gateway) - idle;
    assert!((2..=8).contains(&cost), "six pipelined requests cost {cost} wakeups");
    assert_reconciles(&gateway, 0);
    gateway.shutdown();
}

#[test]
fn a_malformed_request_is_answered_400_and_its_neighbours_are_served() {
    // One worker, held inside the backend by r0: good, wrong-width,
    // good queue up behind it, from two connections.
    let serving = ServingConfig::default().with_workers(1);
    let cfg = GatewayConfig::default().with_serving(serving);
    let gated = Gated::new(false, None);
    let gateway =
        Gateway::serve(Arc::<Gated>::clone(&gated) as Arc<dyn Accelerator>, "127.0.0.1:0", cfg)
            .unwrap();
    let addr = gateway.local_addr();
    let good = features(9);
    let too_wide = igcn_graph::SparseFeatures::random(good.num_rows(), good.num_cols() + 1, 0.3, 9);

    let mut binary = raw_connection(&gateway);
    binary.write_all(&infer_frame(0, 9, 0)).unwrap();
    wait_until("r0 is inside the backend", || gated.entered.load(Ordering::SeqCst) == 1);
    binary.write_all(&infer_frame(1, 9, 0)).unwrap();
    wait_until("r1 is queued", || gateway.stats().admitted == 2);
    let malformed = {
        let too_wide = too_wide.clone();
        std::thread::spawn(move || {
            HttpClient::connect(addr).unwrap().infer(2, None, &too_wide).unwrap()
        })
    };
    wait_until("r2 is queued", || gateway.stats().admitted == 3);
    binary.write_all(&infer_frame(3, 9, 0)).unwrap();
    wait_until("r3 is queued", || gateway.stats().admitted == 4);
    gated.open_gate();

    for (frame, id) in read_frames(&mut binary, 3).into_iter().zip([0, 1, 3]) {
        match frame {
            wire::Frame::Ok { id: got, .. } => assert_eq!(got, id),
            other => panic!("request {id} sat beside a malformed one and got {other:?}"),
        }
    }
    // The malformed one is its sender's error: 400 over HTTP, the same
    // `Err` frame as ever over the binary protocol.
    match malformed.join().unwrap() {
        InferReply::Error(message) => {
            assert!(message.starts_with("HTTP 400") && message.contains("shape"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    binary.write_all(&wire::encode_infer(4, 0, &too_wide, 0)).unwrap();
    match read_one_frame(&mut binary) {
        wire::Frame::Err { id: 4, message } => assert!(message.contains("shape"), "{message}"),
        other => panic!("expected an Err frame, got {other:?}"),
    }
    let s = gateway.stats();
    assert_eq!((s.completed, s.failed), (3, 2), "{s:?}");
    assert_reconciles(&gateway, 0);
    gateway.shutdown();
}
