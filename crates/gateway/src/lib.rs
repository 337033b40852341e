//! `igcn-gateway`: the hermetic network serving edge.
//!
//! Everything below `igcn-serve` is a library type; this crate is the
//! piece that listens on a socket. One TCP listener serves **two wire
//! protocols**, sniffed from the first byte of each connection:
//!
//! * **HTTP/1.1** (`POST /v1/infer`, `GET /healthz`, `GET /stats`)
//!   with JSON bodies — human-debuggable, `curl`-able, and still
//!   bit-exact: the two bulk bodies go through the typed streaming
//!   codec in [`body`] (shortest-round-trip `f32` text, arrays parsed
//!   straight into their vectors), the small ones through
//!   `serde::json`;
//! * **length-prefixed binary** ([`wire`], version 3) — the same
//!   magic/version/length/checksum framing conventions as `igcn-store`
//!   snapshots, raw IEEE-754 bits in bulk little-endian sections under
//!   a word-at-a-time checksum. Its magic starts with `0x89`, which no
//!   HTTP request can begin with.
//!
//! On both protocols a message is produced once, into the buffer that
//! is written to the socket, and consumed once, out of the buffer the
//! socket filled.
//!
//! # Architecture
//!
//! ```text
//!            ┌────────────── io threads (IGCN_IO_THREADS) ──────────────┐
//! clients ──▶│ blocked in poll(2): read, sniff, parse, write replies    │
//!            └──────────────┬────────────────────────────▲──────────────┘
//!              admit / shed (try_submit)      completion + Waker::wake
//!            ┌──────────────▼────────────────────────────┴──────────────┐
//!            │ igcn-serve ServingEngine: the one bounded queue, the     │
//!            │ deadline check at the pop, IGCN_WORKER_THREADS workers   │
//!            │ serving one request each over any Accelerator            │
//!            └──────────────────────────────────────────────────────────┘
//! ```
//!
//! * **One queue.** A parsed request goes straight into the serving
//!   tier's bounded queue through the non-blocking `try_submit`: when
//!   that queue is at capacity, or the EWMA-estimated wait exceeds
//!   [`GatewayConfig::max_estimated_wait`], the request is **shed**
//!   immediately (HTTP 429 / binary `Shed`) — the IO threads never
//!   block on a full system.
//! * **Deadlines cancel at the pop**: the worker that pops a request
//!   checks its deadline; an expired request is answered with HTTP 504
//!   / binary `Deadline` *without ever reaching the backend*. Once
//!   popped alive, a request runs to completion (its response may
//!   arrive after the deadline — the caller decides what to do with
//!   it).
//! * **Completions are pushed, nothing is polled.** The worker hands
//!   each outcome to the queue entry's completion, which puts it on the
//!   owning IO thread's list and fires that thread's `Waker`. An IO
//!   thread sleeps in `poll(2)` with no timeout, wakes for a socket
//!   event, a completion, a connection handed over by the accepting
//!   thread or shutdown, and touches only the connections concerned:
//!   an idle gateway makes no wakeups (`igcn_gateway_io_wakeups_total`
//!   stands still). The one timer it ever arms is for a connection
//!   with an *incomplete* request (30 s without a byte: HTTP 408 /
//!   binary `Err`, closed).
//! * **Connection buffers are bounded**: each connection's input and
//!   output buffer is capped at [`GatewayConfig::max_conn_buffer`].
//!   A peer that floods pipelined requests or stops draining
//!   responses has its socket reads suspended (TCP backpressure)
//!   until the buffers drain; a single request too large to ever fit
//!   the budget is rejected (HTTP 413 / binary `Err`) and the
//!   connection closed; a declared length is reserved only in
//!   proportion to the bytes that have arrived. One hostile or stalled
//!   client cannot grow gateway memory without bound.
//! * **Shutdown drains**: in-flight requests complete and their
//!   responses are flushed before the threads exit; only unparsed
//!   bytes are dropped.
//!
//! The IO side runs on the vendored `crates/compat/mio` event loop
//! (`poll(2)` readiness over `std::net` nonblocking sockets, a
//! socket-pair `Waker`), so the whole edge builds with zero network
//! dependencies.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use igcn_core::accel::{Accelerator, InferenceRequest, InferenceResponse};
use igcn_obs::trace::{OpenSpan, RootSpan};
use igcn_serve::{Completion, QueueStats, ServeError, ServingConfig, ServingEngine};
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};
use serde::json::{obj, JsonValue};

use buf::{RecvBuf, SendBuf, READ_CHUNK};

pub mod body;
mod buf;
mod client;
#[cfg(test)]
mod edge_tests;
pub(crate) mod http;
pub mod wire;

pub use client::{BinaryClient, HttpClient, InferReply, RetryPolicy};
pub use wire::HealthState;

/// Configuration of the gateway front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// IO threads running poll loops (connections are spread across
    /// them round-robin).
    pub io_threads: usize,
    /// Estimated-wait shedding budget: when `EWMA service time ×
    /// pending requests / workers` exceeds this, new requests are shed
    /// even though the queue has space.
    pub max_estimated_wait: Duration,
    /// Per-connection buffer budget in bytes, applied separately to
    /// the input and the output buffer. A connection whose peer floods
    /// pipelined requests or stops draining responses is paused (its
    /// socket is no longer read, so TCP pushes back) once either
    /// buffer exceeds this; an incomplete request that can never fit
    /// is rejected and the connection closed. Must be at least the
    /// largest request a client may legally send.
    pub max_conn_buffer: usize,
    /// The serving tier behind the gateway: worker count and the
    /// capacity of the one queue a request crosses
    /// ([`ServingConfig::queue_capacity`]; requests beyond it are shed).
    pub serving: ServingConfig,
}

impl Default for GatewayConfig {
    /// One IO thread, a 1 s estimated-wait budget, a connection buffer
    /// budget sized to one maximal request (body cap plus head slack),
    /// and the default `ServingConfig` with a 128-deep queue.
    fn default() -> Self {
        GatewayConfig {
            io_threads: 1,
            max_estimated_wait: Duration::from_secs(1),
            max_conn_buffer: http::MAX_BODY + http::MAX_HEAD,
            serving: ServingConfig::default().with_queue_capacity(128),
        }
    }
}

impl GatewayConfig {
    /// Sets the IO thread count.
    ///
    /// # Panics
    ///
    /// Panics if `io_threads == 0`.
    pub fn with_io_threads(mut self, io_threads: usize) -> Self {
        assert!(io_threads > 0, "at least one IO thread is required");
        self.io_threads = io_threads;
        self
    }

    /// Sets the estimated-wait shedding budget.
    pub fn with_max_estimated_wait(mut self, budget: Duration) -> Self {
        self.max_estimated_wait = budget;
        self
    }

    /// Sets the per-connection buffer budget.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn with_max_conn_buffer(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "connection buffer budget must be positive");
        self.max_conn_buffer = bytes;
        self
    }

    /// Replaces the serving-tier configuration.
    pub fn with_serving(mut self, serving: ServingConfig) -> Self {
        self.serving = serving;
        self
    }

    /// Defaults, overridden by the environment: `IGCN_IO_THREADS` sets
    /// the IO thread count and `IGCN_WORKER_THREADS` the serving worker
    /// count (both must parse as positive integers; anything else is
    /// ignored).
    pub fn from_env() -> Self {
        let mut cfg = GatewayConfig::default();
        if let Some(n) = env_usize("IGCN_IO_THREADS") {
            cfg.io_threads = n;
        }
        if let Some(n) = env_usize("IGCN_WORKER_THREADS") {
            cfg.serving.num_workers = n;
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok().filter(|&n| n > 0)
}

/// One consistent snapshot of the gateway's counters plus the serving
/// tier's [`QueueStats`] (served on `GET /stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests accepted into the serving queue.
    pub admitted: u64,
    /// Requests a worker popped alive and handed to the backend
    /// (≤ admitted; the difference in terminal states is deadline
    /// expiries).
    pub dispatched: u64,
    /// Successful responses delivered.
    pub completed: u64,
    /// Requests that failed in the backend or serving tier.
    pub failed: u64,
    /// Requests shed at admission (queue full or estimated wait over
    /// budget). Always the sum of the three per-reason counters below.
    pub shed: u64,
    /// Sheds because the serving queue was at capacity.
    pub shed_queue_full: u64,
    /// Sheds because the estimated queue wait exceeded the budget.
    pub shed_estimated_wait: u64,
    /// Sheds because the gateway was draining or shutting down.
    pub shed_draining: u64,
    /// Requests admitted and not yet terminal (queued, dispatched, or
    /// awaiting response delivery).
    pub inflight: u64,
    /// Requests answered "deadline expired": dropped by the worker that
    /// popped them, never handed to the backend.
    pub deadline_expired: u64,
    /// Malformed requests, corrupt frames, and requests that stalled
    /// half-sent (the connection is closed).
    pub protocol_errors: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Bytes of complete requests consumed off HTTP connections (heads
    /// and bodies; `GET`s included).
    pub request_bytes_http: u64,
    /// Bytes of complete frames consumed off binary connections.
    pub request_bytes_binary: u64,
    /// Reply bytes queued on HTTP connections (every reply, errors
    /// included).
    pub response_bytes_http: u64,
    /// Reply bytes queued on binary connections.
    pub response_bytes_binary: u64,
    /// Returns of `Poll::poll` over all IO threads since start — what
    /// the IO threads are doing: it stands still on an idle gateway and
    /// moves by a handful per request.
    pub io_wakeups: u64,
    /// `accept` calls that failed with anything but `WouldBlock` —
    /// typically the process or the system out of file descriptors.
    /// Each makes the listener back off: out of the poll for 100 ms, or
    /// until a connection closes.
    pub accept_errors: u64,
    /// EWMA of dispatch-to-completion service time (queue wait
    /// excluded), microseconds.
    pub ewma_service_us: u64,
    /// The one queue's counters (depth and capacity among them).
    pub serving: QueueStats,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Total sheds; kept as the exact sum of the three reason counters
    /// so existing consumers of `shed` see unchanged semantics.
    shed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_estimated_wait: AtomicU64,
    shed_draining: AtomicU64,
    deadline_expired: AtomicU64,
    protocol_errors: AtomicU64,
    connections: AtomicU64,
    io_wakeups: AtomicU64,
    accept_errors: AtomicU64,
    /// Request / response bytes, indexed by [`Protocol::index`].
    request_bytes: [AtomicU64; 2],
    response_bytes: [AtomicU64; 2],
    /// Live gauge: admitted minus terminal (completed/failed/expired)
    /// minus abandoned (connection died before its response was built).
    inflight: AtomicI64,
}

impl Counters {
    fn shed(&self, reason: &AtomicU64) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        reason.fetch_add(1, Ordering::Relaxed);
    }
}

/// What it takes to answer one admitted request, wherever it is: which
/// connection (on the IO thread that admitted it) and under what ids.
struct PendingReply {
    conn: usize,
    wire_id: u64,
    keep_alive: bool,
    /// The request's end-to-end trace id (server-minted when the
    /// client sent none): echoed on the reply and stamped on any
    /// slow-request log line.
    trace: u64,
    /// The request's root trace-tree span; finishing it is what appends
    /// the request's flight-recorder entry. It travels with the request
    /// so that whatever drops it unanswered — a completion landing on a
    /// connection that has died, a forced shutdown — finishes the trace
    /// (and the flight entry) as "aborted" instead of leaking an
    /// in-progress tree.
    root: RootSpan,
}

/// A request the serving tier is done with, on its way back to the IO
/// thread that owns its connection.
struct Completed {
    reply: PendingReply,
    result: Result<InferenceResponse, ServeError>,
    /// Pop to completion on the worker — the `dispatch` span's length:
    /// this request's service and nothing else, no queue wait — so the
    /// EWMA it feeds composes with the pending count in
    /// [`Inner::admit`] without double-counting queueing delay. `None`
    /// for a request that expired in the queue.
    service: Option<Duration>,
}

/// What other threads hand one IO thread.
#[derive(Default)]
struct Inbox {
    /// Connections the accepting thread assigned to this one.
    streams: Vec<TcpStream>,
    completed: Vec<Completed>,
}

/// One IO thread's inbox and the waker that gets it out of `poll`.
struct Mailbox {
    inbox: Mutex<Inbox>,
    waker: Waker,
    /// A post has woken the thread and the thread has not looked at the
    /// inbox since: further posts need not wake it again.
    wake_pending: AtomicBool,
}

impl Mailbox {
    /// Puts something in the inbox, then wakes the thread — in that
    /// order, so the thread that wakes finds it — unless an earlier
    /// post's wake is still pending: N completions between two polls
    /// cost one waker write. (The thread clears the flag *before* it
    /// takes the inbox, so a post that finds it set was put in an inbox
    /// not yet taken.)
    fn post(&self, put: impl FnOnce(&mut Inbox)) {
        // invariant: inbox-lock holders only push to / swap out Vecs,
        // so the lock is never poisoned.
        put(&mut self.inbox.lock().expect("inbox lock"));
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Swaps the inbox's contents with `taken` (which is empty: both
    /// sides keep their allocations).
    fn take(&self, taken: &mut Inbox) {
        self.wake_pending.store(false, Ordering::SeqCst);
        // invariant: see `post` — the lock is never poisoned.
        std::mem::swap(&mut *self.inbox.lock().expect("inbox lock"), taken);
    }

    fn wake(&self) {
        // A failed wake means the socket pair itself is broken; there
        // is nobody to tell, and the thread still wakes for its next
        // socket event.
        let _ = self.waker.wake();
    }
}

/// The gateway's queue-entry completion: it records the `queue_wait` /
/// `dispatch` stages around the pop and routes the outcome back to the
/// IO thread that owns the connection.
struct ReplyRoute {
    mailbox: Arc<Mailbox>,
    reply: PendingReply,
    admitted_at: Instant,
    dispatch: Option<(Instant, OpenSpan)>,
}

impl ReplyRoute {
    /// How long the request sat in the queue, whatever its fate — the
    /// queue_wait stage histogram feeds capacity planning for shed
    /// tuning.
    fn record_queue_wait(&self) {
        igcn_obs::trace::record_child_ns(
            self.reply.root.ctx(),
            igcn_obs::stage::QUEUE_WAIT,
            self.admitted_at.elapsed().as_nanos() as u64,
        );
    }
}

impl Completion for ReplyRoute {
    fn dispatched(&mut self, request: &mut InferenceRequest) {
        self.record_queue_wait();
        // The dispatch span opens *before* the backend call so the
        // engines see their parent on the request.
        let span = OpenSpan::child(self.reply.root.ctx(), igcn_obs::stage::DISPATCH);
        request.trace = span.ctx();
        self.dispatch = Some((Instant::now(), span));
    }

    fn complete(self: Box<Self>, result: Result<InferenceResponse, ServeError>) {
        if self.dispatch.is_none() {
            // Expired at the pop: its whole life was queue wait.
            self.record_queue_wait();
        }
        let ReplyRoute { mailbox, reply, dispatch, .. } = *self;
        // The span closes here, on the worker, before it pops its next
        // request: one request's `dispatch` never overlaps another's on
        // the same worker, and the hand-back is not in it.
        let service = dispatch.map(|(popped_at, _span)| popped_at.elapsed());
        mailbox.post(|inbox| inbox.completed.push(Completed { reply, result, service }));
    }
}

struct Inner {
    backend_name: String,
    serving: ServingEngine,
    cfg: GatewayConfig,
    /// How long a connection may hold an incomplete request without
    /// sending a byte ([`REQUEST_IDLE`]; tests shorten it).
    request_idle: Duration,
    shutdown: AtomicBool,
    /// Drain mode ([`Gateway::begin_drain`]): health reports draining,
    /// new inference requests are shed, in-flight work still completes
    /// and `/healthz`+`/stats` still answer — the pre-shutdown window a
    /// load balancer needs to take the replica out of rotation.
    draining: AtomicBool,
    counters: Counters,
    /// EWMA of pop→completion service time, nanoseconds (0 = no
    /// sample yet). Queue wait is deliberately excluded: `admit`
    /// multiplies this by the pending depth, so a sample that already
    /// contained queueing delay would double-count it and over-shed.
    /// Plain store — a lost race only skews the estimate by one
    /// sample.
    ewma_service_ns: AtomicU64,
    /// One per IO thread.
    mailboxes: Vec<Arc<Mailbox>>,
}

impl Inner {
    /// The shedding estimate: how long a request admitted now would sit
    /// behind everything already in the queue or in a worker, if the
    /// EWMA service time holds. `None` before the first sample.
    fn estimated_wait_ns(&self) -> Option<u64> {
        let ewma = self.ewma_service_ns.load(Ordering::Relaxed);
        (ewma > 0).then(|| {
            let qs = self.serving.queue_stats();
            let pending = qs.submitted.saturating_sub(qs.completed);
            ewma.saturating_mul(pending + 1) / qs.workers.max(1) as u64
        })
    }

    /// Admits one request into the serving queue, to be answered
    /// through `route` — or sheds it, handing `route` back.
    fn admit(
        &self,
        request: InferenceRequest,
        deadline: Option<Instant>,
        route: ReplyRoute,
    ) -> Result<(), ReplyRoute> {
        // A draining (or shutting-down) gateway refuses new work the
        // same way it sheds: the client sees a retryable signal and
        // goes to another replica.
        if self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst) {
            self.counters.shed(&self.counters.shed_draining);
            return Err(route);
        }
        if self
            .estimated_wait_ns()
            .is_some_and(|ns| ns > self.cfg.max_estimated_wait.as_nanos() as u64)
        {
            self.counters.shed(&self.counters.shed_estimated_wait);
            return Err(route);
        }
        // In flight from before it is queued: a worker may pop it, and
        // anyone may look at the gauge, before `try_submit` has returned
        // here.
        self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        match self.serving.try_submit(request, deadline, route) {
            Ok(()) => {
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err((e, route)) => {
                self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
                self.counters.shed(match e {
                    ServeError::QueueFull => &self.counters.shed_queue_full,
                    _ => &self.counters.shed_draining,
                });
                Err(route)
            }
        }
    }

    /// The live health model, folded from the lifecycle flag, the
    /// serving tier ([`igcn_serve::ServingEngine::health`], which
    /// itself folds in [`Accelerator::health`]) and shed pressure:
    ///
    /// * **draining** — [`Gateway::begin_drain`] was called (or
    ///   shutdown began): in-flight work finishes, new work is shed;
    /// * **degraded** — the backend is wedged or degraded (dead
    ///   shards), or the estimated queue wait exceeds the shedding
    ///   budget so new requests are being shed;
    /// * **ready** — serving normally.
    fn health(&self) -> (wire::HealthState, String) {
        if self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst) {
            return (
                wire::HealthState::Draining,
                "draining: finishing in-flight requests, refusing new work".to_string(),
            );
        }
        if let igcn_core::BackendHealth::Degraded { detail } = self.serving.health() {
            return (wire::HealthState::Degraded, detail);
        }
        // Shed pressure: the same estimate `admit` sheds on. Sustained
        // over-budget wait means new requests are being refused even
        // though the backend itself is healthy.
        match self.estimated_wait_ns() {
            Some(ns) if ns > self.cfg.max_estimated_wait.as_nanos() as u64 => (
                wire::HealthState::Degraded,
                format!(
                    "shedding: estimated queue wait {} ms exceeds the {} ms budget",
                    ns / 1_000_000,
                    self.cfg.max_estimated_wait.as_millis()
                ),
            ),
            _ => (wire::HealthState::Ready, "serving".to_string()),
        }
    }

    fn record_service_sample(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos() as u64;
        let old = self.ewma_service_ns.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { (old * 7 + sample) / 8 };
        self.ewma_service_ns.store(new, Ordering::Relaxed);
    }

    fn stats(&self) -> GatewayStats {
        let c = &self.counters;
        let serving = self.serving.queue_stats();
        GatewayStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            // Only this gateway submits to its serving tier, so what was
            // submitted and is neither queued nor expired was dispatched.
            dispatched: serving.submitted - serving.depth as u64 - serving.expired,
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue_full.load(Ordering::Relaxed),
            shed_estimated_wait: c.shed_estimated_wait.load(Ordering::Relaxed),
            shed_draining: c.shed_draining.load(Ordering::Relaxed),
            inflight: c.inflight.load(Ordering::Relaxed).max(0) as u64,
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            connections: c.connections.load(Ordering::Relaxed),
            request_bytes_http: c.request_bytes[0].load(Ordering::Relaxed),
            request_bytes_binary: c.request_bytes[1].load(Ordering::Relaxed),
            response_bytes_http: c.response_bytes[0].load(Ordering::Relaxed),
            response_bytes_binary: c.response_bytes[1].load(Ordering::Relaxed),
            io_wakeups: c.io_wakeups.load(Ordering::Relaxed),
            accept_errors: c.accept_errors.load(Ordering::Relaxed),
            ewma_service_us: self.ewma_service_ns.load(Ordering::Relaxed) / 1_000,
            serving,
        }
    }

    /// Per-component (per-shard, for a sharded fleet) backend health
    /// as JSON rows; empty for monolithic backends.
    fn components_json(&self) -> JsonValue {
        JsonValue::Array(
            self.serving
                .backend()
                .component_health()
                .into_iter()
                .map(|(component, health)| {
                    let (state, detail) = match health {
                        igcn_core::BackendHealth::Ready => ("ready", String::new()),
                        igcn_core::BackendHealth::Degraded { detail } => ("degraded", detail),
                    };
                    obj([
                        ("component", JsonValue::Str(component)),
                        ("state", JsonValue::Str(state.to_string())),
                        ("detail", JsonValue::Str(detail)),
                    ])
                })
                .collect(),
        )
    }

    /// Per-stage latency summaries from the process-global telemetry
    /// registry: one row per declared stage that has recorded samples.
    fn stages_json() -> JsonValue {
        let mut rows = Vec::new();
        for &stage in igcn_obs::stage::ALL {
            let snap = igcn_obs::stage_histogram(stage).snapshot();
            if snap.count() == 0 {
                continue;
            }
            rows.push((
                stage.to_string(),
                obj([
                    ("count", JsonValue::Uint(snap.count())),
                    ("p50_ns", JsonValue::Uint(snap.quantile(0.50))),
                    ("p90_ns", JsonValue::Uint(snap.quantile(0.90))),
                    ("p99_ns", JsonValue::Uint(snap.quantile(0.99))),
                    ("max_ns", JsonValue::Uint(snap.max)),
                ]),
            ));
        }
        JsonValue::Object(rows)
    }

    /// The Prometheus text exposition served on `GET /metrics`: the
    /// process-global registry (counters, gauges, stage summaries)
    /// followed by this gateway instance's own counters — instance
    /// counters stay per-[`Gateway`] (tests and multi-gateway
    /// processes rely on that), so they are rendered here rather than
    /// mirrored into the global registry.
    fn metrics_text(&self) -> String {
        let mut out = igcn_obs::render_prometheus();
        let s = self.stats();
        // One unlabelled family each; `_total` names a counter, anything
        // else a gauge.
        for (name, help, value) in [
            ("admitted_total", "Requests accepted into the serving queue.", s.admitted),
            ("dispatched_total", "Requests popped alive and handed to the backend.", s.dispatched),
            ("completed_total", "Successful responses delivered.", s.completed),
            ("failed_total", "Requests failed in the backend or serving tier.", s.failed),
            ("shed_total", "Requests shed at admission.", s.shed),
            (
                "deadline_expired_total",
                "Requests whose deadline expired in the queue.",
                s.deadline_expired,
            ),
            (
                "protocol_errors_total",
                "Malformed, corrupt or timed-out requests.",
                s.protocol_errors,
            ),
            ("connections_total", "Connections accepted since start.", s.connections),
            (
                "io_wakeups_total",
                "Returns of Poll::poll, all IO threads (still while idle).",
                s.io_wakeups,
            ),
            (
                "accept_errors_total",
                "Failed accept calls (fd exhaustion and the like); the listener backs off.",
                s.accept_errors,
            ),
            ("queue_depth", "Requests in the serving queue right now.", s.serving.depth as u64),
            ("inflight", "Requests admitted and not yet terminal.", s.inflight),
            ("ewma_service_us", "EWMA of pop-to-completion service time.", s.ewma_service_us),
        ] {
            let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
            out.push_str(&format!(
                "# HELP igcn_gateway_{name} {help}\n# TYPE igcn_gateway_{name} {kind}\nigcn_gateway_{name} {value}\n"
            ));
        }
        // The shed split by reason, one labelled family — the three
        // values always sum to shed_total.
        out.push_str(
            "# HELP igcn_gateway_shed_reason_total Requests shed at admission, by reason.\n\
             # TYPE igcn_gateway_shed_reason_total counter\n",
        );
        for (reason, value) in [
            ("queue_full", s.shed_queue_full),
            ("estimated_wait", s.shed_estimated_wait),
            ("draining", s.shed_draining),
        ] {
            out.push_str(&format!(
                "igcn_gateway_shed_reason_total{{reason=\"{reason}\"}} {value}\n"
            ));
        }
        // Bytes in and out by protocol: divided by the request counts
        // above they give bytes per request, to read beside the
        // decode/encode stage histograms.
        for (name, help, http, binary) in [
            (
                "request_bytes_total",
                "Bytes of complete requests consumed off connections, by protocol.",
                s.request_bytes_http,
                s.request_bytes_binary,
            ),
            (
                "response_bytes_total",
                "Reply bytes queued on connections, by protocol.",
                s.response_bytes_http,
                s.response_bytes_binary,
            ),
        ] {
            out.push_str(&format!(
                "# HELP igcn_gateway_{name} {help}\n# TYPE igcn_gateway_{name} counter\n\
                 igcn_gateway_{name}{{protocol=\"http\"}} {http}\n\
                 igcn_gateway_{name}{{protocol=\"binary\"}} {binary}\n"
            ));
        }
        out
    }

    fn stats_json(&self) -> JsonValue {
        let s = self.stats();
        obj([
            (
                "gateway",
                obj([
                    ("admitted", JsonValue::Uint(s.admitted)),
                    ("dispatched", JsonValue::Uint(s.dispatched)),
                    ("completed", JsonValue::Uint(s.completed)),
                    ("failed", JsonValue::Uint(s.failed)),
                    ("shed", JsonValue::Uint(s.shed)),
                    ("shed_queue_full", JsonValue::Uint(s.shed_queue_full)),
                    ("shed_estimated_wait", JsonValue::Uint(s.shed_estimated_wait)),
                    ("shed_draining", JsonValue::Uint(s.shed_draining)),
                    ("inflight", JsonValue::Uint(s.inflight)),
                    ("deadline_expired", JsonValue::Uint(s.deadline_expired)),
                    ("protocol_errors", JsonValue::Uint(s.protocol_errors)),
                    ("connections", JsonValue::Uint(s.connections)),
                    (
                        "request_bytes",
                        obj([
                            ("http", JsonValue::Uint(s.request_bytes_http)),
                            ("binary", JsonValue::Uint(s.request_bytes_binary)),
                        ]),
                    ),
                    (
                        "response_bytes",
                        obj([
                            ("http", JsonValue::Uint(s.response_bytes_http)),
                            ("binary", JsonValue::Uint(s.response_bytes_binary)),
                        ]),
                    ),
                    ("io_wakeups", JsonValue::Uint(s.io_wakeups)),
                    ("accept_errors", JsonValue::Uint(s.accept_errors)),
                    ("ewma_service_us", JsonValue::Uint(s.ewma_service_us)),
                    ("io_threads", JsonValue::Uint(self.cfg.io_threads as u64)),
                ]),
            ),
            (
                "serving",
                obj([
                    ("depth", JsonValue::Uint(s.serving.depth as u64)),
                    ("capacity", JsonValue::Uint(s.serving.capacity as u64)),
                    ("workers", JsonValue::Uint(s.serving.workers as u64)),
                    ("submitted", JsonValue::Uint(s.serving.submitted)),
                    ("completed", JsonValue::Uint(s.serving.completed)),
                    ("expired", JsonValue::Uint(s.serving.expired)),
                    ("shutting_down", JsonValue::Bool(s.serving.shutting_down)),
                ]),
            ),
            ("stages", Self::stages_json()),
            ("shards", self.components_json()),
            ("backend", JsonValue::Str(self.backend_name.clone())),
        ])
    }
}

const LISTENER: Token = Token(usize::MAX);
const WAKER: Token = Token(usize::MAX - 1);
const DRAIN_BUDGET: Duration = Duration::from_secs(10);
/// How long the listener is left alone after `accept` fails for want
/// of a resource (`EMFILE`, `ENFILE`, `ENOBUFS`, …): the condition
/// outlasts the call, and a level-triggered listener left registered
/// would report the same backlog again at once, for ever. A connection
/// closing — a descriptor coming free — ends the wait early.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
/// A connection with an incomplete request that receives no byte for
/// this long is answered HTTP 408 / binary `Err` and closed — a peer
/// that opens a request and stalls cannot hold its buffer for ever.
const REQUEST_IDLE: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Unknown,
    Http,
    Binary,
}

impl Protocol {
    /// Index into the per-protocol byte counters (a connection has
    /// sent or been sent nothing while its protocol is unknown).
    fn index(self) -> usize {
        usize::from(self == Protocol::Binary)
    }
}

struct Conn {
    /// Its token on the IO thread that owns it, and that thread's
    /// mailbox: where the completions of its requests are sent.
    id: usize,
    mailbox: Arc<Mailbox>,
    stream: TcpStream,
    inbuf: RecvBuf,
    outbuf: SendBuf,
    protocol: Protocol,
    /// Requests admitted off this connection and not yet answered.
    in_flight: usize,
    /// Close once the outbuf is flushed (protocol error or
    /// `Connection: close`).
    closing: bool,
    peer_closed: bool,
    /// What the poll currently watches the socket for. Reads are
    /// dropped while a buffer is over [`GatewayConfig::max_conn_buffer`]
    /// (the kernel buffer fills and TCP pushes back on the peer) and
    /// for good once the peer has closed its side (an EOF stays
    /// readable); writes are watched only while `outbuf` has bytes the
    /// socket would not take.
    interest: Option<Interest>,
    /// `inbuf` holds the start of a request whose rest has not arrived,
    /// since `last_byte`: what [`REQUEST_IDLE`] runs against.
    awaiting_more: bool,
    last_byte: Instant,
    /// The socket may have bytes: set by a readable event (and for a
    /// new connection), cleared by the read that finds none. A service
    /// pass made for another reason — a completion, a timer — does not
    /// issue a `read` that can only say `WouldBlock`.
    readable: bool,
}

impl Conn {
    fn new(id: usize, mailbox: Arc<Mailbox>, stream: TcpStream) -> Conn {
        Conn {
            id,
            mailbox,
            stream,
            inbuf: RecvBuf::default(),
            outbuf: SendBuf::default(),
            protocol: Protocol::Unknown,
            in_flight: 0,
            closing: false,
            peer_closed: false,
            interest: None,
            awaiting_more: false,
            last_byte: Instant::now(),
            readable: true,
        }
    }

    /// Drains the socket into `inbuf` — read in place, no intermediate
    /// chunk — stopping once the buffer is over `budget` bytes (the
    /// caller then pauses reads until it drains — unread bytes stay in
    /// the kernel buffer and TCP pushes back on the peer). One read may
    /// overshoot the budget by at most [`READ_CHUNK`]. Returns `false`
    /// on a fatal transport error (drop the connection).
    fn fill(&mut self, budget: usize) -> bool {
        while self.inbuf.len() <= budget {
            let limit = budget.saturating_add(READ_CHUNK) - self.inbuf.len();
            match self.inbuf.read_from(&self.stream, limit) {
                Ok(0) => {
                    self.peer_closed = true;
                    return true;
                }
                Ok(_) => self.last_byte = Instant::now(),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.readable = false;
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Drops one parsed request of `consumed` bytes from `inbuf`,
    /// counting them against the connection's protocol.
    fn consume_request(&mut self, consumed: usize, inner: &Inner) {
        self.inbuf.consume(consumed);
        inner.counters.request_bytes[self.protocol.index()]
            .fetch_add(consumed as u64, Ordering::Relaxed);
    }

    /// Counts the reply bytes queued since `outbuf` held `queued_before`
    /// pending bytes (with no flush in between) against the
    /// connection's protocol — ticked when a reply is queued, not when
    /// the socket takes it, so the counter is already up when the
    /// client reads the reply.
    fn count_replies(&self, queued_before: usize, inner: &Inner) {
        inner.counters.response_bytes[self.protocol.index()]
            .fetch_add((self.outbuf.pending() - queued_before) as u64, Ordering::Relaxed);
    }

    /// Queues the reply to a request that gets no output, in the
    /// connection's protocol: `frame` as it is, or as the HTTP error
    /// `status` + `message`.
    fn reply_without_output(
        &mut self,
        (keep_alive, trace): (bool, u64),
        status: u16,
        message: &str,
        frame: wire::Frame,
    ) {
        if self.protocol == Protocol::Binary {
            wire::encode_into(self.outbuf.tail(), &frame, trace);
        } else {
            let reply = http::error_response(status, message, keep_alive, trace);
            self.outbuf.extend_from_slice(&reply);
            self.closing |= !keep_alive;
        }
    }

    /// Queues the reply that ends the conversation — a request that
    /// cannot be served on a connection that cannot go on — and drops
    /// whatever was buffered of it.
    fn refuse(&mut self, inner: &Inner, http_status: u16, message: &str) {
        let queued = self.outbuf.pending();
        let frame = wire::Frame::Err { id: 0, message: message.to_string() };
        self.reply_without_output((false, 0), http_status, message, frame);
        self.count_replies(queued, inner);
        self.closing = true;
        self.awaiting_more = false;
        self.inbuf.clear();
    }

    /// Writes as much of `outbuf` as the socket takes. Returns `false`
    /// on a fatal transport error.
    fn flush(&mut self) -> bool {
        while self.outbuf.pending() > 0 {
            match self.outbuf.write_to(&self.stream) {
                Ok(0) => return false,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    fn idle(&self) -> bool {
        self.in_flight == 0 && self.outbuf.pending() == 0
    }
}

/// One IO thread: its poller, the connections it owns, and which of
/// them need looking at.
struct IoThread {
    idx: usize,
    inner: Arc<Inner>,
    poll: Poll,
    /// Thread 0 owns the listener.
    listener: Option<TcpListener>,
    /// The failpoint at this gateway's `accept` call (named by its
    /// address, so that arming it leaves other gateways in the process
    /// alone).
    accept_failpoint: String,
    /// `accept` failed: the listener is out of the poll until then.
    accept_retry: Option<Instant>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    /// Round-robin cursor over the IO threads for accepted connections.
    next_target: usize,
    /// The connections to service this round: those that reported an
    /// event, received a completion or ran out their request-idle time.
    touched: Vec<usize>,
    /// The connections with an incomplete request — the only ones a
    /// timer runs for.
    stalled: Vec<usize>,
}

impl IoThread {
    /// Runs until shutdown has drained every connection (or
    /// [`DRAIN_BUDGET`] has run out). Blocks in `poll` with no timeout
    /// unless a connection holds an incomplete request or the gateway
    /// is shutting down; every other reason to run arrives as an event.
    fn run(mut self) {
        let inner = Arc::clone(&self.inner);
        let mut events = Events::with_capacity(64);
        let mut inbox = Inbox::default();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let idle_deadline =
                self.stalled.iter().map(|id| self.conns[id].last_byte + inner.request_idle).min();
            let timeout = [drain_deadline.or(idle_deadline), self.accept_retry]
                .into_iter()
                .flatten()
                .min()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            // invariant: poll() on a live poller fails only with EINVAL /
            // ENOMEM (EINTR is retried inside) — nothing an IO thread
            // can serve through, so it panics deliberately and shutdown
            // surfaces the panic.
            self.poll.poll(&mut events, timeout).expect("poll");
            inner.counters.io_wakeups.fetch_add(1, Ordering::Relaxed);

            let shutting = inner.shutdown.load(Ordering::SeqCst);
            if shutting && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_BUDGET);
                // Stop listening (a backlog nobody accepts would keep
                // the poll returning), and the one sweep: connections
                // with nothing left to say close now, the others as
                // their replies go out.
                if let Some(mut listener) = self.listener.take() {
                    if self.accept_retry.take().is_none() {
                        let _ = self.poll.registry().deregister(&mut listener);
                    }
                }
                self.touched.extend(self.conns.keys());
            }
            if self.accept_retry.is_some_and(|at| Instant::now() >= at) {
                self.accept();
            }

            for event in &events {
                match event.token() {
                    LISTENER => self.accept(),
                    // The inbox is looked at on every wakeup anyway.
                    WAKER => {}
                    Token(id) => {
                        if let Some(conn) = self.conns.get_mut(&id).filter(|_| event.is_readable())
                        {
                            conn.readable = true;
                        }
                        self.touched.push(id);
                    }
                }
            }

            inner.mailboxes[self.idx].take(&mut inbox);
            for stream in inbox.streams.drain(..) {
                if !shutting {
                    self.adopt(stream);
                }
            }
            for completed in inbox.completed.drain(..) {
                self.deliver(completed);
            }

            let now = Instant::now();
            for &id in &self.stalled {
                let conn = self.conns.get_mut(&id).expect("stalled connections are live");
                if now >= conn.last_byte + inner.request_idle {
                    inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.refuse(&inner, 408, "request timed out: no byte for too long");
                    self.touched.push(id);
                }
            }

            self.touched.sort_unstable();
            self.touched.dedup();
            for i in 0..self.touched.len() {
                self.service(self.touched[i], shutting);
            }
            self.touched.clear();

            if shutting && (self.conns.is_empty() || drain_deadline.is_some_and(|d| now >= d)) {
                // Whatever is still in flight on a connection the budget
                // ran out on leaves the gauge with it.
                let leftover: usize = self.conns.values().map(|c| c.in_flight).sum();
                inner.counters.inflight.fetch_sub(leftover as i64, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Accepts everything in the backlog, spreading the connections
    /// round-robin across the IO threads. `WouldBlock` is the empty
    /// backlog; an error that is the *process's* (no descriptor, no
    /// memory) takes the listener out of the poll for
    /// [`ACCEPT_BACKOFF`], or until a connection closes.
    fn accept(&mut self) {
        loop {
            let Some(listener) = &mut self.listener else { return };
            let accepted = match igcn_fail::eval(&self.accept_failpoint) {
                Some(_) => Err(io::Error::other("injected accept failure")),
                None => listener.accept(),
            };
            match accepted {
                Ok((stream, _addr)) => {
                    self.inner.counters.connections.fetch_add(1, Ordering::Relaxed);
                    let target = self.next_target % self.inner.mailboxes.len();
                    self.next_target = self.next_target.wrapping_add(1);
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        self.inner.mailboxes[target].post(|inbox| inbox.streams.push(stream));
                    }
                }
                // The connection's own failure (reset before it was
                // accepted): the next one may be fine.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => {
                    // The listener is in the poll exactly while no retry
                    // is due. invariant: registering a live socket fails
                    // only on fd or memory exhaustion — see the poller
                    // comment in run().
                    let failed = e.kind() != io::ErrorKind::WouldBlock;
                    let registry = self.poll.registry();
                    match (self.accept_retry.is_some(), failed) {
                        (true, false) => registry
                            .register(listener, LISTENER, Interest::READABLE)
                            .expect("listener registers"),
                        (false, true) => drop(registry.deregister(listener)),
                        _ => {}
                    }
                    self.accept_retry = failed.then(|| Instant::now() + ACCEPT_BACKOFF);
                    self.inner
                        .counters
                        .accept_errors
                        .fetch_add(u64::from(failed), Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Takes ownership of a connection. It is serviced at once: bytes
    /// that are already there need no second wakeup.
    fn adopt(&mut self, stream: TcpStream) {
        let id = self.next_token;
        self.next_token += 1;
        let mailbox = Arc::clone(&self.inner.mailboxes[self.idx]);
        self.conns.insert(id, Conn::new(id, mailbox, stream));
        self.touched.push(id);
    }

    /// Forgets a connection. Requests it still has in flight leave the
    /// gauge now; their completions will find nobody home and drop,
    /// which finishes their traces as "aborted".
    fn close(&mut self, id: usize) {
        if let Some(mut conn) = self.conns.remove(&id) {
            self.inner.counters.inflight.fetch_sub(conn.in_flight as i64, Ordering::Relaxed);
            if conn.interest.is_some() {
                let _ = self.poll.registry().deregister(&mut conn.stream);
            }
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.stalled.retain(|&stalled| stalled != id);
            // A descriptor has come free: a listener that is backing off
            // tries again on the next round.
            if self.accept_retry.is_some() {
                self.accept_retry = Some(Instant::now());
            }
        }
    }

    /// One pass over a connection that has something to do: read what
    /// has arrived, write what is pending, parse and admit, write again,
    /// then settle whether it lives and what the poll watches it for.
    fn service(&mut self, id: usize, shutting: bool) {
        let inner = &*self.inner;
        let buf_cap = inner.cfg.max_conn_buffer;
        // Closed earlier in this round, or before its completion came.
        let Some(conn) = self.conns.get_mut(&id) else { return };
        // A connection that is on its way out is no longer read (nor,
        // below, watched for reads): what it sends is not wanted.
        let wanted = !(conn.peer_closed || conn.closing || shutting);
        let mut alive = !(wanted && conn.readable) || conn.fill(buf_cap);
        alive = alive && conn.flush();
        // Stop parsing (and therefore admitting) while the peer is
        // not draining responses: a write backlog over budget must
        // not keep growing from fresh pipelined requests.
        let queued = conn.outbuf.pending();
        if alive && !shutting && queued <= buf_cap {
            process_input(conn, inner);
            conn.count_replies(queued, inner);
            alive = conn.flush();
        }
        // An over-budget input buffer with nothing in flight and
        // nothing left to flush holds one incomplete request that
        // can never complete within the budget: reject it.
        if alive && conn.inbuf.len() > buf_cap && conn.idle() && !conn.closing {
            inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let what = if conn.protocol == Protocol::Binary { "frame" } else { "request" };
            conn.refuse(
                inner,
                413,
                &format!("{what} exceeds the {buf_cap}-byte connection buffer"),
            );
            alive = conn.flush();
        }
        if !alive || ((conn.closing || conn.peer_closed || shutting) && conn.idle()) {
            return self.close(id);
        }

        let over = conn.inbuf.len() > buf_cap || conn.outbuf.pending() > buf_cap;
        let read = !(over || conn.peer_closed || conn.closing || shutting);
        let read = read.then_some(Interest::READABLE);
        let write = (conn.outbuf.pending() > 0).then_some(Interest::WRITABLE);
        let interest = match (read, write) {
            (Some(read), Some(write)) => Some(read.add(write)),
            (read, write) => read.or(write),
        };
        if interest != conn.interest {
            let registry = self.poll.registry();
            // invariant: (de)registering a live socket fails only on fd
            // or memory exhaustion — see the poller comment in run().
            if conn.interest.is_some() {
                registry.deregister(&mut conn.stream).expect("conn deregisters");
            }
            if let Some(interest) = interest {
                registry.register(&mut conn.stream, Token(id), interest).expect("conn registers");
            }
            conn.interest = interest;
        }
        if conn.awaiting_more != self.stalled.contains(&id) {
            if conn.awaiting_more {
                self.stalled.push(id);
            } else {
                self.stalled.retain(|&stalled| stalled != id);
            }
        }
    }
}
/// Parses as many complete requests as the connection's input buffer
/// holds, admitting each (or shedding / failing it immediately).
fn process_input(conn: &mut Conn, inner: &Inner) {
    conn.awaiting_more = false;
    // What a request still arriving may come to occupy: as much as
    // [`Conn::fill`] would read under the connection's budget; one
    // longer than that is refused once the budget is crossed.
    let room = inner.cfg.max_conn_buffer.saturating_add(READ_CHUNK);
    loop {
        if conn.closing {
            return;
        }
        if conn.protocol == Protocol::Unknown {
            match conn.inbuf.data().first() {
                None => return,
                Some(&first) => {
                    conn.protocol = if first == wire::WIRE_MAGIC[0] {
                        Protocol::Binary
                    } else {
                        Protocol::Http
                    };
                }
            }
        }
        match conn.protocol {
            Protocol::Http => {
                // HTTP/1.1 without pipelining: one request outstanding
                // per connection; later bytes wait in the buffer.
                if conn.in_flight > 0 {
                    return;
                }
                // Decode is timed with an explicit clock and recorded
                // retroactively: the root span it parents under only
                // exists once the request has parsed.
                let started = igcn_obs::enabled().then(Instant::now);
                match http::parse(conn.inbuf.data()) {
                    http::HttpParse::NeedMore(total) => {
                        // An incomplete buffer is not a decode; the
                        // stage only measures requests that parsed.
                        conn.inbuf.declare(total.min(room));
                        conn.awaiting_more = !conn.inbuf.data().is_empty();
                        return;
                    }
                    http::HttpParse::Request(request, consumed) => {
                        let decode_ns = started.map(|t| t.elapsed().as_nanos() as u64);
                        conn.consume_request(consumed, inner);
                        handle_http_request(conn, inner, request, decode_ns);
                    }
                    http::HttpParse::Error { status, message } => {
                        inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        conn.outbuf
                            .extend_from_slice(&http::error_response(status, &message, false, 0));
                        conn.closing = true;
                        conn.inbuf.clear();
                        return;
                    }
                }
            }
            Protocol::Binary => {
                let started = igcn_obs::enabled().then(Instant::now);
                match wire::decode(conn.inbuf.data()) {
                    wire::Decoded::NeedMore => {
                        let total = wire::frame_len(conn.inbuf.data()).unwrap_or(0);
                        conn.inbuf.declare(total.min(room));
                        conn.awaiting_more = !conn.inbuf.data().is_empty();
                        return;
                    }
                    wire::Decoded::Frame(frame, trace, consumed) => {
                        let decode_ns = started.map(|t| t.elapsed().as_nanos() as u64);
                        conn.consume_request(consumed, inner);
                        handle_frame(conn, inner, frame, trace, decode_ns);
                    }
                    wire::Decoded::Corrupt(message) => {
                        inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        wire::encode_into(
                            conn.outbuf.tail(),
                            &wire::Frame::Err { id: 0, message },
                            0,
                        );
                        conn.closing = true;
                        conn.inbuf.clear();
                        return;
                    }
                }
            }
            Protocol::Unknown => unreachable!("sniffed above"),
        }
    }
}

/// Roots one parsed inference request's trace and admits it, to be
/// answered through `conn` — or sheds it on the spot.
fn admit_infer(
    conn: &mut Conn,
    inner: &Inner,
    request: InferenceRequest,
    deadline_ms: Option<u64>,
    keep_alive: bool,
    trace: u64,
    decode_ns: Option<u64>,
) {
    let (protocol, decode_stage) = match conn.protocol {
        Protocol::Binary => ("binary", igcn_obs::stage::GATEWAY_DECODE_BINARY),
        _ => ("http", igcn_obs::stage::GATEWAY_DECODE_HTTP),
    };
    let mut root = igcn_obs::trace::root_span(trace, "request");
    root.tag("protocol", protocol);
    root.tag("request_id", request.id);
    root.tag("backend", &inner.backend_name);
    if let Some(ns) = decode_ns {
        igcn_obs::trace::record_child_ns(root.ctx(), decode_stage, ns);
    }
    let admitted_at = Instant::now();
    let deadline = deadline_ms.map(|ms| admitted_at + Duration::from_millis(ms));
    let reply = PendingReply { conn: conn.id, wire_id: request.id, keep_alive, trace, root };
    let route =
        ReplyRoute { mailbox: Arc::clone(&conn.mailbox), reply, admitted_at, dispatch: None };
    match inner.admit(request, deadline, route) {
        Ok(()) => conn.in_flight += 1,
        Err(ReplyRoute { reply, .. }) => {
            let shed = wire::Frame::Shed { id: reply.wire_id };
            let message = "shed: gateway is at capacity, retry later";
            conn.reply_without_output((keep_alive, trace), 429, message, shed);
            reply.root.finish("shed");
        }
    }
}

/// A request's effective trace id: the client's, or a freshly minted
/// one when the client sent none (0).
fn effective_trace(trace: u64) -> u64 {
    if trace != 0 {
        trace
    } else {
        igcn_obs::next_trace_id()
    }
}

fn handle_http_request(
    conn: &mut Conn,
    inner: &Inner,
    request: http::HttpRequest,
    decode_ns: Option<u64>,
) {
    match request {
        http::HttpRequest::Healthz { keep_alive, trace } => {
            let trace = effective_trace(trace);
            // 200 only when ready: load balancers treat any non-2xx as
            // "take this replica out of rotation", which is exactly
            // what degraded and draining mean.
            let (state, detail) = inner.health();
            let status = if state == wire::HealthState::Ready { 200 } else { 503 };
            let body = obj([
                ("status", JsonValue::Str(state.label().to_string())),
                ("detail", JsonValue::Str(detail)),
                ("shards", inner.components_json()),
                ("backend", JsonValue::Str(inner.backend_name.clone())),
            ]);
            conn.outbuf.extend_from_slice(&http::response(status, &body, keep_alive, trace));
            conn.closing |= !keep_alive;
        }
        http::HttpRequest::Stats { keep_alive, trace } => {
            let trace = effective_trace(trace);
            conn.outbuf.extend_from_slice(&http::response(
                200,
                &inner.stats_json(),
                keep_alive,
                trace,
            ));
            conn.closing |= !keep_alive;
        }
        http::HttpRequest::Metrics { keep_alive, trace } => {
            let trace = effective_trace(trace);
            conn.outbuf.extend_from_slice(&http::raw_response(
                200,
                "text/plain; version=0.0.4",
                inner.metrics_text().as_bytes(),
                keep_alive,
                trace,
            ));
            conn.closing |= !keep_alive;
        }
        http::HttpRequest::Infer { id, deadline_ms, features, keep_alive, trace } => {
            let request = InferenceRequest::new(features).with_id(id);
            let trace = effective_trace(trace);
            admit_infer(conn, inner, request, deadline_ms, keep_alive, trace, decode_ns);
        }
        http::HttpRequest::Traces { keep_alive, trace } => {
            let trace = effective_trace(trace);
            conn.outbuf.extend_from_slice(&http::response(200, &traces_json(), keep_alive, trace));
            conn.closing |= !keep_alive;
        }
        http::HttpRequest::TraceById { id, keep_alive, trace } => {
            let trace = effective_trace(trace);
            match igcn_obs::trace::retained_trace(id) {
                Some(retained) => {
                    conn.outbuf.extend_from_slice(&http::raw_response(
                        200,
                        "application/json",
                        retained.to_chrome_json().as_bytes(),
                        keep_alive,
                        trace,
                    ));
                }
                None => {
                    conn.outbuf.extend_from_slice(&http::error_response(
                        404,
                        &format!("no retained trace {id:016x}"),
                        keep_alive,
                        trace,
                    ));
                }
            }
            conn.closing |= !keep_alive;
        }
        http::HttpRequest::DebugFlight { keep_alive, trace } => {
            let trace = effective_trace(trace);
            conn.outbuf.extend_from_slice(&http::response(200, &flight_json(), keep_alive, trace));
            conn.closing |= !keep_alive;
        }
    }
}

/// `GET /traces` body: a summary row per retained trace, newest last,
/// with the id formatted the way `/trace/{id}` accepts it back.
fn traces_json() -> JsonValue {
    let rows = igcn_obs::trace::retained_traces()
        .into_iter()
        .map(|t| {
            obj([
                ("trace_id", JsonValue::Str(format!("{:016x}", t.trace_id))),
                ("status", JsonValue::Str(t.status.to_string())),
                ("total_us", JsonValue::Uint(t.total_ns / 1_000)),
                ("spans", JsonValue::Uint(t.spans.len() as u64)),
                ("truncated_spans", JsonValue::Uint(t.truncated_spans)),
            ])
        })
        .collect();
    obj([
        ("retained", JsonValue::Array(rows)),
        ("retention", JsonValue::Uint(igcn_obs::trace::retention() as u64)),
        ("slow_threshold_ms", JsonValue::Uint(igcn_obs::trace::slow_threshold_ns() / 1_000_000)),
    ])
}

/// `GET /debug/flight` body: the flight recorder's ring, oldest first.
fn flight_json() -> JsonValue {
    let rows = igcn_obs::flight_entries()
        .into_iter()
        .map(|e| {
            let stages = e
                .stages
                .iter()
                .map(|&(name, ns)| (name.to_string(), JsonValue::Uint(ns / 1_000)))
                .collect::<Vec<_>>();
            obj([
                ("trace_id", JsonValue::Str(format!("{:016x}", e.trace_id))),
                ("request_id", JsonValue::Uint(e.request_id)),
                ("protocol", JsonValue::Str(e.protocol)),
                ("status", JsonValue::Str(e.status.to_string())),
                ("stages_us", JsonValue::Object(stages)),
            ])
        })
        .collect();
    obj([
        ("entries", JsonValue::Array(rows)),
        ("capacity", JsonValue::Uint(igcn_obs::FLIGHT_CAPACITY as u64)),
    ])
}

fn handle_frame(
    conn: &mut Conn,
    inner: &Inner,
    frame: wire::Frame,
    trace: u64,
    decode_ns: Option<u64>,
) {
    let trace = effective_trace(trace);
    match frame {
        wire::Frame::Infer { id, deadline_ms, features } => {
            let request = InferenceRequest::new(features).with_id(id);
            let deadline_ms = (deadline_ms > 0).then_some(deadline_ms);
            admit_infer(conn, inner, request, deadline_ms, true, trace, decode_ns);
        }
        wire::Frame::HealthCheck { id } => {
            let (state, mut detail) = inner.health();
            // Per-shard detail rides the aggregate string so the
            // binary Health frame reports the same component view as
            // the `/healthz` JSON body, with no frame layout change.
            let components = inner.serving.backend().component_health();
            if !components.is_empty() {
                detail.push_str("; shards: ");
                for (i, (name, health)) in components.iter().enumerate() {
                    if i > 0 {
                        detail.push_str(", ");
                    }
                    match health {
                        igcn_core::BackendHealth::Ready => {
                            detail.push_str(&format!("{name}=ready"));
                        }
                        igcn_core::BackendHealth::Degraded { detail: why } => {
                            detail.push_str(&format!("{name}=degraded({why})"));
                        }
                    }
                }
            }
            wire::encode_into(
                conn.outbuf.tail(),
                &wire::Frame::Health { id, state, detail },
                trace,
            );
        }
        other => {
            // Clients may only send Infer and HealthCheck frames.
            inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let id = match other {
                wire::Frame::Ok { id, .. }
                | wire::Frame::Err { id, .. }
                | wire::Frame::Shed { id }
                | wire::Frame::Deadline { id }
                | wire::Frame::Health { id, .. } => id,
                wire::Frame::Infer { .. } | wire::Frame::HealthCheck { .. } => {
                    unreachable!("matched above")
                }
            };
            wire::encode_into(
                conn.outbuf.tail(),
                &wire::Frame::Err {
                    id,
                    message: "clients may only send Infer and HealthCheck frames".to_string(),
                },
                trace,
            );
            conn.closing = true;
        }
    }
}

/// Requests whose dispatch-to-completion service time exceeds this get
/// a log line with their trace id — the hook for correlating a slow
/// request across clients, gateway and backend.
const SLOW_REQUEST: Duration = Duration::from_millis(500);

/// Logs a request whose service time reached [`SLOW_REQUEST`].
fn log_if_slow(entry: &PendingReply, protocol: &'static str, service: Duration) {
    if service >= SLOW_REQUEST {
        // The guard scopes the trace id so the structured line carries
        // a "trace" field correlating it with `GET /trace/{id}`.
        let _trace = igcn_log::with_trace(entry.trace);
        igcn_log::warn!(
            "igcn-gateway",
            "slow request",
            request_id = entry.wire_id,
            protocol = protocol,
            service_ms = service.as_millis() as u64,
        );
    }
}

impl IoThread {
    /// Turns one completion into response bytes on its connection
    /// (binary replies go out in completion order; HTTP connections
    /// have one outstanding request by construction).
    fn deliver(&mut self, completed: Completed) {
        let inner = &*self.inner;
        let Completed { reply: entry, result, service } = completed;
        // The connection died first: `entry` drops, and its root span
        // with it.
        let Some(conn) = self.conns.get_mut(&entry.conn) else { return };
        conn.in_flight -= 1;
        inner.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        let is_http = conn.protocol == Protocol::Http;
        let queued = conn.outbuf.pending();
        let to = (entry.keep_alive, entry.trace);
        let status = match result {
            Ok(response) => {
                inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(service) = service {
                    inner.record_service_sample(service);
                    log_if_slow(&entry, if is_http { "http" } else { "binary" }, service);
                }
                let _encode = OpenSpan::child(
                    entry.root.ctx(),
                    if is_http {
                        igcn_obs::stage::RESPONSE_ENCODE_HTTP
                    } else {
                        igcn_obs::stage::RESPONSE_ENCODE_BINARY
                    },
                );
                if is_http {
                    http::infer_ok_response_into(
                        conn.outbuf.tail(),
                        response.id,
                        &response.output,
                        entry.keep_alive,
                        entry.trace,
                    );
                } else {
                    wire::encode_into(
                        conn.outbuf.tail(),
                        &wire::Frame::Ok { id: response.id, output: response.output },
                        entry.trace,
                    );
                }
                "ok"
            }
            Err(ServeError::DeadlineExpired) => {
                inner.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                let frame = wire::Frame::Deadline { id: entry.wire_id };
                conn.reply_without_output(to, 504, "deadline expired before dispatch", frame);
                "deadline"
            }
            Err(e) => {
                inner.counters.failed.fetch_add(1, Ordering::Relaxed);
                // Features of the wrong shape are the client's error.
                let refused =
                    matches!(e, ServeError::Backend(igcn_core::CoreError::ShapeMismatch { .. }));
                let message = e.to_string();
                let frame = wire::Frame::Err { id: entry.wire_id, message: message.clone() };
                conn.reply_without_output(to, if refused { 400 } else { 500 }, &message, frame);
                "failed"
            }
        };
        conn.closing |= is_http && !entry.keep_alive;
        conn.count_replies(queued, inner);
        entry.root.finish(status);
        self.touched.push(entry.conn);
    }
}

/// A running gateway: the listener, its IO threads and the serving
/// tier. Dropping the handle (or calling [`Gateway::shutdown`]) drains
/// gracefully.
pub struct Gateway {
    inner: Arc<Inner>,
    io_threads: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Gateway {
    /// Binds `addr` and starts serving `backend` (which must already be
    /// `prepare`d).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors, and the OS errors of creating the
    /// IO threads and their wakers.
    pub fn serve<A: ToSocketAddrs>(
        backend: Arc<dyn Accelerator>,
        addr: A,
        cfg: GatewayConfig,
    ) -> io::Result<Gateway> {
        Gateway::serve_with_request_idle(backend, addr, cfg, REQUEST_IDLE)
    }

    /// [`Gateway::serve`] with the request-idle limit as an argument:
    /// [`REQUEST_IDLE`] in production, something a test can wait out in
    /// the edge-case tests.
    fn serve_with_request_idle<A: ToSocketAddrs>(
        backend: Arc<dyn Accelerator>,
        addr: A,
        cfg: GatewayConfig,
        request_idle: Duration,
    ) -> io::Result<Gateway> {
        assert!(cfg.io_threads > 0, "at least one IO thread is required");
        // A process that serves traffic wants its stage histograms and
        // flight recorder live; everything else (bare engines, batch
        // tools) keeps the ~1 ns disabled fast path unless it opts in.
        igcn_obs::set_enabled(true);
        let mut listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Pollers and wakers are made here, not on the threads: every
        // thread's waker must exist before any thread can hand another
        // one a connection, and a failure is `serve`'s to return.
        let polls = (0..cfg.io_threads).map(|_| Poll::new()).collect::<io::Result<Vec<_>>>()?;
        polls[0].registry().register(&mut listener, LISTENER, Interest::READABLE)?;
        let mailboxes = polls
            .iter()
            .map(|poll| {
                let waker = Waker::new(poll.registry(), WAKER)?;
                Ok(Arc::new(Mailbox {
                    inbox: Mutex::default(),
                    waker,
                    wake_pending: AtomicBool::new(false),
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let inner = Arc::new(Inner {
            backend_name: backend.name(),
            serving: ServingEngine::start(backend, cfg.serving),
            cfg,
            request_idle,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            ewma_service_ns: AtomicU64::new(0),
            mailboxes,
        });
        let mut gateway = Gateway { inner, io_threads: Vec::new(), local_addr };
        let mut listener = Some(listener);
        for (idx, poll) in polls.into_iter().enumerate() {
            let thread = IoThread {
                idx,
                inner: Arc::clone(&gateway.inner),
                poll,
                listener: listener.take(), // thread 0 owns it
                accept_failpoint: format!("gateway::accept@{local_addr}"),
                accept_retry: None,
                conns: HashMap::new(),
                next_token: 0,
                next_target: 0,
                touched: Vec::new(),
                stalled: Vec::new(),
            };
            // Spawn failures (hitting the OS thread limit) are reachable
            // in a loaded process, so they surface as `io::Error` rather
            // than a panic; dropping the handle shuts down — wakes and
            // joins — the threads that did start.
            let spawned = std::thread::Builder::new()
                .name(format!("igcn-gw-io-{idx}"))
                .spawn(move || thread.run())?;
            gateway.io_threads.push(spawned);
        }
        Ok(gateway)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A consistent snapshot of the gateway and serving counters.
    pub fn stats(&self) -> GatewayStats {
        self.inner.stats()
    }

    /// The gateway's live health: ready, degraded (with why), or
    /// draining — the same model `/healthz` and the binary
    /// [`wire::Frame::Health`] reply report.
    pub fn health(&self) -> (HealthState, String) {
        self.inner.health()
    }

    /// Enters drain mode: health flips to draining (`/healthz` → 503),
    /// new inference requests are shed, but in-flight requests finish
    /// and their responses are flushed, and `/healthz` + `/stats` keep
    /// answering. Call [`Gateway::shutdown`] once the load balancer
    /// has stopped sending traffic.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.wake_io_threads();
    }

    /// Graceful shutdown: stop accepting and parsing new requests, let
    /// everything already admitted complete, flush every in-flight
    /// response, then join all threads and drain the serving tier.
    /// Also performed by `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    /// A flag an IO thread reads has changed: none of them is left
    /// waiting on a timer to notice.
    fn wake_io_threads(&self) {
        for mailbox in &self.inner.mailboxes {
            mailbox.wake();
        }
    }

    fn shutdown_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.wake_io_threads();
        // invariant: join() errs only if the thread panicked; repanicking
        // here deliberately propagates a gateway-thread crash to the
        // owner instead of swallowing it during shutdown.
        for handle in self.io_threads.drain(..) {
            handle.join().expect("io thread panicked");
        }
        // `self.inner` is dropped with the handle; the last reference
        // drops the ServingEngine, whose Drop drains and joins its
        // workers (the queue is already empty here).
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if !self.io_threads.is_empty() {
            self.shutdown_and_join();
        }
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.local_addr)
            .field("backend", &self.inner.backend_name)
            .field("cfg", &self.inner.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    use igcn_core::IGcnEngine;
    use igcn_gnn::{GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::SparseFeatures;

    const N: usize = 150;
    const DIM: usize = 10;

    pub(crate) fn backend() -> Arc<dyn Accelerator> {
        let g = HubIslandConfig::new(N, 7).noise_fraction(0.02).generate(11);
        let mut engine = IGcnEngine::builder(g.graph).build().unwrap();
        let model = GnnModel::gcn(DIM, 8, 5);
        let weights = ModelWeights::glorot(&model, 2);
        engine.prepare(&model, &weights).unwrap();
        Arc::new(engine)
    }

    pub(crate) fn features(seed: u64) -> SparseFeatures {
        SparseFeatures::random(N, DIM, 0.3, seed)
    }

    #[test]
    fn both_protocols_round_trip_bit_identically() {
        let backend = backend();
        let gateway =
            Gateway::serve(Arc::clone(&backend), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let addr = gateway.local_addr();
        let direct = backend.infer(&InferenceRequest::new(features(3)).with_id(42)).unwrap();

        let mut http = HttpClient::connect(addr).unwrap();
        match http.infer(42, None, &features(3)).unwrap() {
            InferReply::Output { id, output } => {
                assert_eq!(id, 42);
                assert_eq!(output, direct.output, "HTTP output must be bit-identical");
            }
            other => panic!("expected output, got {other:?}"),
        }

        let mut binary = BinaryClient::connect(addr).unwrap();
        match binary.infer(43, None, &features(3)).unwrap() {
            InferReply::Output { id, output } => {
                assert_eq!(id, 43);
                assert_eq!(output, direct.output, "binary output must be bit-identical");
            }
            other => panic!("expected output, got {other:?}"),
        }

        let stats = gateway.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.shed, 0);
        gateway.shutdown();
    }

    #[test]
    fn healthz_and_stats_respond() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ready"));

        let _ = client.infer(1, None, &features(1)).unwrap();
        let (status, body) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        let doc = JsonValue::parse(&body).unwrap();
        let admitted = doc.get("gateway").and_then(|g| g.get("admitted")).and_then(|v| v.as_u64());
        assert_eq!(admitted, Some(1));
        gateway.shutdown();
    }

    #[test]
    fn trace_ids_propagate_end_to_end_on_both_protocols() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let addr = gateway.local_addr();

        // HTTP: a client-supplied trace id comes back verbatim in the
        // X-IGCN-Trace response header.
        let mut http = HttpClient::connect(addr).unwrap();
        let (reply, echoed) = http.infer_traced(1, None, &features(1), 0xFACE).unwrap();
        assert!(matches!(reply, InferReply::Output { .. }), "got {reply:?}");
        assert_eq!(echoed, 0xFACE, "HTTP must echo the client's trace id");
        // Without one, the gateway mints a nonzero id, fresh per request.
        let (_, t1) = http.infer_traced(2, None, &features(1), 0).unwrap();
        let (_, t2) = http.infer_traced(3, None, &features(1), 0).unwrap();
        assert_ne!(t1, 0, "the gateway must mint a trace id");
        assert_ne!(t2, 0);
        assert_ne!(t1, t2, "minted trace ids must be unique per request");

        // Binary: the same contract through the frame header field.
        let mut binary = BinaryClient::connect(addr).unwrap();
        let (reply, echoed) = binary.infer_traced(4, None, &features(1), 0xBEE5).unwrap();
        assert!(matches!(reply, InferReply::Output { .. }), "got {reply:?}");
        assert_eq!(echoed, 0xBEE5, "binary must echo the client's trace id");
        let (_, t3) = binary.infer_traced(5, None, &features(1), 0).unwrap();
        let (_, t4) = binary.infer_traced(6, None, &features(1), 0).unwrap();
        assert_ne!(t3, 0);
        assert_ne!(t4, 0);
        assert_ne!(t3, t4);

        // Error replies echo too: drain mode sheds deterministically,
        // and the shed reply must still carry the request's trace.
        gateway.begin_drain();
        let (reply, echoed) = http.infer_traced(7, None, &features(1), 0x7707).unwrap();
        assert_eq!(reply, InferReply::Shed);
        assert_eq!(echoed, 0x7707, "HTTP shed replies must echo the trace id");
        let (reply, echoed) = binary.infer_traced(8, None, &features(1), 0x8808).unwrap();
        assert_eq!(reply, InferReply::Shed);
        assert_eq!(echoed, 0x8808, "binary shed replies must echo the trace id");
        gateway.shutdown();
    }

    #[test]
    fn metrics_and_stats_expose_stage_telemetry() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let mut client = HttpClient::connect(gateway.local_addr()).unwrap();
        let _ = client.infer(1, None, &features(2)).unwrap();

        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("# TYPE igcn_stage_ns summary"),
            "the global stage summary family must be exposed"
        );
        assert!(
            body.contains("igcn_gateway_admitted_total"),
            "gateway instance counters must be appended"
        );
        // Every non-comment line is `name[{labels}] value`.
        for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (_, value) = line.rsplit_once(' ').expect("metric lines end in a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable metric line {line:?}");
        }

        let (status, body) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        let doc = JsonValue::parse(&body).unwrap();
        let stages = doc.get("stages").expect("stats must report per-stage histograms");
        let queue_wait = stages
            .get(igcn_obs::stage::QUEUE_WAIT)
            .expect("queue_wait is recorded for every request a worker pops");
        assert!(queue_wait.get("count").and_then(|v| v.as_u64()).unwrap() >= 1);
        assert!(queue_wait.get("p99_ns").and_then(|v| v.as_u64()).is_some());
        assert!(doc.get("shards").is_some(), "stats must carry the per-shard health array");
        gateway.shutdown();
    }

    #[test]
    fn byte_counters_report_request_and_response_bytes_by_protocol() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let addr = gateway.local_addr();
        let x = features(4);

        // Binary: exactly one frame in, one frame out.
        let mut binary = BinaryClient::connect(addr).unwrap();
        let reply = match binary.infer(1, None, &x).unwrap() {
            InferReply::Output { id, output } => wire::Frame::Ok { id, output },
            other => panic!("expected output, got {other:?}"),
        };
        let trace = 1; // any nonzero id: the field is fixed-width
        let stats = gateway.stats();
        assert_eq!(stats.request_bytes_binary, wire::encode_infer(1, 0, &x, trace).len() as u64);
        assert_eq!(stats.response_bytes_binary, wire::encode_traced(&reply, trace).len() as u64);
        assert_eq!((stats.request_bytes_http, stats.response_bytes_http), (0, 0));

        // HTTP: the request's own bytes in; the reply is at least its
        // body (GETs count too, so read the counters before scraping).
        let mut http = HttpClient::connect(addr).unwrap();
        let _ = http.infer(2, None, &x).unwrap();
        let stats = gateway.stats();
        assert_eq!(
            stats.request_bytes_http,
            http::infer_request_bytes(2, None, &x, 0).len() as u64
        );
        assert!(stats.response_bytes_http > 0);
        assert_eq!(stats.request_bytes_binary, wire::encode_infer(1, 0, &x, trace).len() as u64);

        let (_, metrics) = http.get("/metrics").unwrap();
        for (family, protocol, value) in [
            ("request_bytes_total", "http", stats.request_bytes_http),
            ("request_bytes_total", "binary", stats.request_bytes_binary),
            ("response_bytes_total", "http", stats.response_bytes_http),
            ("response_bytes_total", "binary", stats.response_bytes_binary),
        ] {
            let line = format!("igcn_gateway_{family}{{protocol=\"{protocol}\"}} ");
            let reported: u64 = metrics
                .lines()
                .find_map(|l| l.strip_prefix(&line))
                .unwrap_or_else(|| panic!("no {line:?} line in /metrics"))
                .parse()
                .unwrap();
            // The scrape's own request has been consumed by now.
            assert!(reported >= value, "{line}{reported} < {value}");
        }
        assert!(metrics.contains("# TYPE igcn_gateway_request_bytes_total counter"));

        let (_, body) = http.get("/stats").unwrap();
        let doc = JsonValue::parse(&body).unwrap();
        let bytes = |family: &str, protocol: &str| {
            doc.get("gateway")
                .and_then(|g| g.get(family))
                .and_then(|f| f.get(protocol))
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("/stats lacks gateway.{family}.{protocol}"))
        };
        assert_eq!(bytes("request_bytes", "binary"), stats.request_bytes_binary);
        assert_eq!(bytes("response_bytes", "binary"), stats.response_bytes_binary);
        assert!(bytes("request_bytes", "http") > stats.request_bytes_http);
        assert!(bytes("response_bytes", "http") > stats.response_bytes_http);
        gateway.shutdown();
    }

    #[test]
    fn http_client_refuses_an_oversized_content_length() {
        // A peer that answers with a Content-Length beyond the body cap:
        // the client must fail with a typed error instead of reserving
        // (or waiting for) whatever the peer claims.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 4096];
            let _ = stream.read(&mut chunk).unwrap();
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", http::MAX_BODY + 1);
            stream.write_all(head.as_bytes()).unwrap();
            // Keep the connection open: a client that trusted the
            // length would now block forever.
            let _ = stream.read(&mut chunk);
        });
        let mut client = HttpClient::connect(addr).unwrap();
        let err = client.get("/healthz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "got {err}");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn http_protocol_errors_close_with_4xx() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let mut stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        stream.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap(); // server closes
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 404"), "got {text}");
        assert_eq!(gateway.stats().protocol_errors, 1);
        gateway.shutdown();
    }

    #[test]
    fn corrupt_binary_frames_close_with_err() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let mut stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        let mut bad =
            wire::encode(&wire::Frame::Infer { id: 1, deadline_ms: 0, features: features(1) });
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // breaks the checksum
        stream.write_all(&bad).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        match wire::decode(&response) {
            wire::Decoded::Frame(wire::Frame::Err { message, .. }, _, _) => {
                assert!(message.contains("checksum"), "got {message}");
            }
            other => panic!("expected an Err frame, got {other:?}"),
        }
        assert_eq!(gateway.stats().protocol_errors, 1);
        gateway.shutdown();
    }

    /// Reads until one complete binary frame is buffered (tolerating a
    /// reset once the server has closed its side).
    pub(crate) fn read_one_frame(stream: &mut std::net::TcpStream) -> wire::Frame {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let wire::Decoded::Frame(frame, _, _) = wire::decode(&buf) {
                return frame;
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => panic!("connection ended before a frame arrived"),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    #[test]
    fn oversized_incomplete_requests_are_rejected_not_buffered() {
        let cfg = GatewayConfig::default().with_max_conn_buffer(1024);
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", cfg).unwrap();

        // Binary: a frame header declaring a 100 kB payload that will
        // never fit the 1 kB budget, followed by enough bytes to cross
        // it — the server must answer with Err and close, not buffer.
        let mut stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&wire::WIRE_MAGIC);
        bytes.extend_from_slice(&wire::WIRE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&100_000u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum (frame never completes)
        bytes.resize(bytes.len() + 2048, 0);
        stream.write_all(&bytes).unwrap();
        match read_one_frame(&mut stream) {
            wire::Frame::Err { message, .. } => {
                assert!(message.contains("connection buffer"), "got {message}");
            }
            other => panic!("expected an Err frame, got {other:?}"),
        }

        // HTTP: same story, via Content-Length.
        let mut stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        let mut bytes = b"POST /v1/infer HTTP/1.1\r\nContent-Length: 100000\r\n\r\n".to_vec();
        bytes.resize(bytes.len() + 2048, b'x');
        stream.write_all(&bytes).unwrap();
        let mut response = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => response.extend_from_slice(&chunk[..n]),
            }
        }
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 413"), "got {text}");

        assert_eq!(gateway.stats().protocol_errors, 2);
        gateway.shutdown();
    }

    #[test]
    fn pipelined_flood_is_backpressured_within_the_buffer_budget() {
        const REQS: u64 = 20;
        let backend = backend();
        let cfg = GatewayConfig::default().with_max_conn_buffer(16 << 10);
        let gateway = Gateway::serve(Arc::clone(&backend), "127.0.0.1:0", cfg).unwrap();
        let direct = backend.infer(&InferenceRequest::new(features(5)).with_id(0)).unwrap();

        let stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        let mut blob = Vec::new();
        for id in 0..REQS {
            blob.extend_from_slice(&wire::encode(&wire::Frame::Infer {
                id,
                deadline_ms: 0,
                features: features(5),
            }));
        }
        assert!(blob.len() > 16 << 10, "the flood must exceed the buffer budget");
        // Write from a second thread so the reply stream drains while
        // the flood is still being pushed (a single-threaded
        // write-then-read peer that never drains is exactly what the
        // budget defends against).
        let writer = {
            let mut stream = stream.try_clone().unwrap();
            std::thread::spawn(move || stream.write_all(&blob).unwrap())
        };
        let mut stream = stream;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut got = std::collections::HashSet::new();
        while got.len() < REQS as usize {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed before all replies arrived");
            buf.extend_from_slice(&chunk[..n]);
            loop {
                match wire::decode(&buf) {
                    wire::Decoded::Frame(wire::Frame::Ok { id, output }, _, used) => {
                        assert_eq!(output, direct.output, "reply {id} must be bit-identical");
                        assert!(got.insert(id), "duplicate reply for id {id}");
                        buf.drain(..used);
                    }
                    wire::Decoded::Frame(other, _, _) => panic!("unexpected frame {other:?}"),
                    wire::Decoded::NeedMore => break,
                    wire::Decoded::Corrupt(msg) => panic!("corrupt reply stream: {msg}"),
                }
            }
        }
        writer.join().unwrap();
        assert_eq!(gateway.stats().completed, REQS);
        assert_eq!(gateway.stats().protocol_errors, 0);
        gateway.shutdown();
    }

    /// An accelerator that fails every request — a wedged backend as
    /// the gateway's serving tier sees it.
    struct Wedged {
        graph: Arc<igcn_graph::CsrGraph>,
    }

    impl Accelerator for Wedged {
        fn name(&self) -> String {
            "wedged".to_string()
        }
        fn graph(&self) -> &igcn_graph::CsrGraph {
            &self.graph
        }
        fn prepare(
            &mut self,
            _: &igcn_gnn::GnnModel,
            _: &igcn_gnn::ModelWeights,
        ) -> Result<(), igcn_core::CoreError> {
            Ok(())
        }
        fn infer(&self, _: &InferenceRequest) -> Result<InferenceResponse, igcn_core::CoreError> {
            Err(igcn_core::CoreError::BackendFailed {
                backend: "wedged".to_string(),
                detail: "simulated wedge".to_string(),
            })
        }
        fn report(
            &self,
            _: &InferenceRequest,
        ) -> Result<igcn_core::ExecReport, igcn_core::CoreError> {
            Ok(Default::default())
        }
    }

    #[test]
    fn health_model_reports_ready_degraded_and_draining_on_both_protocols() {
        let g = igcn_graph::CsrGraph::from_undirected_edges(2, &[(0, 1)]).unwrap();
        let cfg = GatewayConfig::default()
            .with_serving(ServingConfig::default().with_workers(1).with_failure_threshold(1));
        let gateway =
            Gateway::serve(Arc::new(Wedged { graph: Arc::new(g) }), "127.0.0.1:0", cfg).unwrap();
        let addr = gateway.local_addr();

        // Ready: /healthz answers 200 and the Health frame echoes it.
        let mut http = HttpClient::connect(addr).unwrap();
        let (status, body) = http.get("/healthz").unwrap();
        assert_eq!(status, 200);
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ready"));
        assert_eq!(http.health().unwrap().0, HealthState::Ready);
        let mut binary = BinaryClient::connect(addr).unwrap();
        assert_eq!(binary.health().unwrap().0, HealthState::Ready);
        assert_eq!(gateway.health().0, HealthState::Ready);

        // One failed request crosses the threshold of 1: degraded.
        match http.infer(1, None, &features(1)).unwrap() {
            InferReply::Error(message) => assert!(message.contains("wedged"), "got {message}"),
            other => panic!("expected an error from the wedged backend, got {other:?}"),
        }
        let (status, body) = http.get("/healthz").unwrap();
        assert_eq!(status, 503, "degraded must be non-2xx for load balancers");
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("degraded"));
        let (state, detail) = binary.health().unwrap();
        assert_eq!(state, HealthState::Degraded);
        assert!(detail.contains("wedged"), "detail: {detail}");

        // Draining trumps everything; infer requests are shed while
        // health and stats keep answering.
        gateway.begin_drain();
        let (state, _) = binary.health().unwrap();
        assert_eq!(state, HealthState::Draining);
        let (status, body) = http.get("/healthz").unwrap();
        assert_eq!(status, 503);
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("draining"));
        assert_eq!(binary.infer(2, None, &features(1)).unwrap(), InferReply::Shed);
        assert_eq!(http.infer(3, None, &features(1)).unwrap(), InferReply::Shed);
        let (status, _) = http.get("/stats").unwrap();
        assert_eq!(status, 200, "stats must stay observable during a drain");
        gateway.shutdown();
    }

    #[test]
    fn shed_replies_are_retried_a_bounded_number_of_times() {
        let gateway = Gateway::serve(backend(), "127.0.0.1:0", GatewayConfig::default()).unwrap();
        let addr = gateway.local_addr();
        // Drain mode sheds every inference deterministically, so the
        // shed counter counts the client's attempts exactly.
        gateway.begin_drain();
        let policy = RetryPolicy::default()
            .with_max_retries(2)
            .with_base_delay(Duration::from_millis(1))
            .with_max_delay(Duration::from_millis(2))
            .with_seed(7);

        let mut binary = BinaryClient::connect(addr).unwrap();
        let reply = binary.infer_with_retry(1, None, &features(1), &policy).unwrap();
        assert_eq!(reply, InferReply::Shed, "budget exhausted: the final shed is returned");
        assert_eq!(gateway.stats().shed, 3, "max_retries=2 must mean exactly 3 attempts");

        let mut http = HttpClient::connect(addr).unwrap();
        let reply = http.infer_with_retry(2, None, &features(1), &policy).unwrap();
        assert_eq!(reply, InferReply::Shed);
        assert_eq!(gateway.stats().shed, 6);
        gateway.shutdown();
    }

    #[test]
    fn malformed_responses_are_never_retried() {
        use std::sync::atomic::AtomicUsize;
        // A fake "gateway" that answers every request with garbage.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let requests = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&requests);
        let server = std::thread::spawn(move || {
            // One HTTP client, then one binary client. Requests are
            // reassembled with the real parsers so a body split across
            // reads still counts as one request.
            for (garbage, is_http) in [
                (&b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nzzz"[..], true),
                // Longer than a frame header so the client sees the bad
                // magic instead of waiting for more header bytes.
                (&b"\x00\x01\x02garbage-not-a-wire-frame-at-all"[..], false),
            ] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 65536];
                loop {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break, // client gave up: no retry arrived
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                    loop {
                        let consumed = if is_http {
                            match http::parse(&buf) {
                                http::HttpParse::Request(_, consumed) => Some(consumed),
                                _ => None,
                            }
                        } else {
                            match wire::decode(&buf) {
                                wire::Decoded::Frame(_, _, consumed) => Some(consumed),
                                _ => None,
                            }
                        };
                        let Some(consumed) = consumed else { break };
                        buf.drain(..consumed);
                        counted.fetch_add(1, Ordering::SeqCst);
                        stream.write_all(garbage).unwrap();
                    }
                }
            }
        });
        let policy =
            RetryPolicy::default().with_max_retries(5).with_base_delay(Duration::from_millis(1));

        let mut http = HttpClient::connect(addr).unwrap();
        let err = http.infer_with_retry(1, None, &features(1), &policy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(http); // EOF tells the server this client sent everything it ever will
        let mut binary = BinaryClient::connect(addr).unwrap();
        let err = binary.infer_with_retry(2, None, &features(1), &policy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(binary);
        server.join().unwrap();
        assert_eq!(
            requests.load(Ordering::SeqCst),
            2,
            "one request per client call: malformed replies must not be retried"
        );
    }

    #[test]
    fn from_env_reads_thread_knobs() {
        // Serialised by being the only env test in this crate.
        std::env::set_var("IGCN_IO_THREADS", "3");
        std::env::set_var("IGCN_WORKER_THREADS", "5");
        let cfg = GatewayConfig::from_env();
        assert_eq!(cfg.io_threads, 3);
        assert_eq!(cfg.serving.num_workers, 5);
        std::env::set_var("IGCN_IO_THREADS", "zero");
        std::env::set_var("IGCN_WORKER_THREADS", "0");
        let cfg = GatewayConfig::from_env();
        assert_eq!(cfg.io_threads, 1, "unparseable values are ignored");
        assert_eq!(cfg.serving.num_workers, ServingConfig::default().num_workers);
        std::env::remove_var("IGCN_IO_THREADS");
        std::env::remove_var("IGCN_WORKER_THREADS");
    }

    #[test]
    fn multiple_io_threads_serve_concurrent_clients() {
        let backend = backend();
        let cfg = GatewayConfig::default().with_io_threads(2);
        let gateway = Gateway::serve(Arc::clone(&backend), "127.0.0.1:0", cfg).unwrap();
        let addr = gateway.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let backend = Arc::clone(&backend);
                std::thread::spawn(move || {
                    let seed = 20 + i;
                    let direct = backend
                        .infer(&InferenceRequest::new(features(seed)).with_id(seed))
                        .unwrap();
                    let mut client = if i % 2 == 0 {
                        let mut c = HttpClient::connect(addr).unwrap();
                        return match c.infer(seed, None, &features(seed)).unwrap() {
                            InferReply::Output { output, .. } => output == direct.output,
                            _ => false,
                        };
                    } else {
                        BinaryClient::connect(addr).unwrap()
                    };
                    match client.infer(seed, None, &features(seed)).unwrap() {
                        InferReply::Output { output, .. } => output == direct.output,
                        _ => false,
                    }
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().unwrap(), "a client saw a non-identical output");
        }
        assert_eq!(gateway.stats().completed, 4);
        gateway.shutdown();
    }
}
