//! Multi-worker serving front-end over any [`Accelerator`] backend.
//!
//! The engine of `igcn-core` is `Send + Sync` and answers `infer` from
//! shared references; this crate adds the piece a serving deployment
//! needs on top: a [`ServingEngine`] that puts a **bounded request
//! queue** and a **worker pool** in front of the backend.
//!
//! * A queue entry is a request, an optional **deadline** and a
//!   [`Completion`]. **A worker serves one request at a time**: it pops
//!   one entry and checks its deadline there, which is right before it
//!   would run — an expired entry is completed with
//!   [`ServeError::DeadlineExpired`] and never reaches the backend; a
//!   live one has its completion told it is being dispatched, goes
//!   through [`Accelerator::infer`], and its completion is told the
//!   outcome — for the gateway, pushed straight to the IO thread that
//!   owns the connection. Nothing waits to fill a batch, and one
//!   request's failure is its own.
//! * [`ServingEngine::submit`] enqueues one request (blocking when the
//!   queue is at capacity — backpressure, not unbounded memory) and
//!   returns a [`Ticket`] — the condvar completion — the caller later
//!   [`Ticket::wait`]s on. [`ServingEngine::try_submit`] is the
//!   non-blocking door: it takes the caller's own completion and
//!   refuses instead of waiting.
//! * [`ServingEngine::shutdown`] (and `Drop`) is **graceful**: no new
//!   submissions are accepted, queued requests still complete, workers
//!   join.
//!
//! Two parallelism axes, one knob each: requests run concurrently
//! across [`ServingConfig::num_workers`] here, and one request's islands
//! fan out up to `igcn-core`'s `ExecConfig::num_threads` wide inside the
//! backend. The workers are threads of their own; the fan-out borrows
//! helpers from the process's one helper pool, which the gateway's HTTP
//! codec segments share, and runs on the worker whatever no idle helper
//! takes.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use igcn_core::accel::{Accelerator, InferenceRequest};
//! use igcn_core::IGcnEngine;
//! use igcn_gnn::{GnnModel, ModelWeights};
//! use igcn_graph::generate::HubIslandConfig;
//! use igcn_graph::SparseFeatures;
//! use igcn_serve::{ServingConfig, ServingEngine};
//!
//! let g = HubIslandConfig::new(200, 8).noise_fraction(0.0).generate(4);
//! let mut engine = IGcnEngine::builder(g.graph).build()?;
//! let model = GnnModel::gcn(16, 8, 3);
//! let weights = ModelWeights::glorot(&model, 2);
//! engine.prepare(&model, &weights)?;
//!
//! let serving = ServingEngine::start(Arc::new(engine), ServingConfig::default());
//! let ticket = serving
//!     .submit(InferenceRequest::new(SparseFeatures::random(200, 16, 0.3, 1)).with_id(7))
//!     .expect("accepting");
//! let response = ticket.wait().expect("backend answers");
//! assert_eq!(response.id, 7);
//! serving.shutdown();
//! # Ok::<(), igcn_core::CoreError>(())
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use igcn_core::accel::{Accelerator, InferenceRequest, InferenceResponse};
use igcn_core::{BackendHealth, CoreError};

/// Configuration of the serving front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Worker threads, each serving one request at a time off the queue.
    pub num_workers: usize,
    /// Bounded queue capacity; [`ServingEngine::submit`] blocks when the
    /// queue is full (backpressure).
    pub queue_capacity: usize,
    /// Consecutive failed requests (backend errors or contained
    /// panics, with no success in between) after which
    /// [`ServingEngine::health`] reports the tier degraded — the
    /// wedged-backend detector. One successful request resets the
    /// streak; a request the backend refused for its shape
    /// ([`CoreError::ShapeMismatch`]) is the client's error and leaves
    /// it alone; `0` disables the threshold.
    pub failure_threshold: u32,
}

impl Default for ServingConfig {
    /// Two workers, a 64-deep queue, degraded after three failures in
    /// a row.
    fn default() -> Self {
        ServingConfig { num_workers: 2, queue_capacity: 64, failure_threshold: 3 }
    }
}

impl ServingConfig {
    /// Sets the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        self.num_workers = workers;
        self
    }

    /// Sets the bounded queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the consecutive-failure threshold for
    /// [`ServingEngine::health`] (0 disables it).
    pub fn with_failure_threshold(mut self, threshold: u32) -> Self {
        self.failure_threshold = threshold;
        self
    }
}

/// Errors of the serving front-end.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The backend rejected the request (shape mismatch, not prepared…).
    Backend(CoreError),
    /// The engine is shutting down and accepts no new submissions.
    ShuttingDown,
    /// The backend *panicked* while executing this request; the worker
    /// caught the unwind and stayed alive.
    BackendPanicked,
    /// [`ServingEngine::try_submit`] found the queue at capacity — the
    /// non-blocking admission path's backpressure signal (the gateway
    /// turns it into an HTTP 429 / binary `Shed` frame).
    QueueFull,
    /// The entry's deadline had passed when a worker popped it: it was
    /// dropped there and never reached the backend (the gateway turns
    /// it into an HTTP 504 / binary `Deadline` frame).
    DeadlineExpired,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Backend(e) => write!(f, "backend error: {e}"),
            ServeError::ShuttingDown => write!(f, "serving engine is shutting down"),
            ServeError::BackendPanicked => {
                write!(f, "backend panicked while executing the request")
            }
            ServeError::QueueFull => write!(f, "serving queue is at capacity"),
            ServeError::DeadlineExpired => write!(f, "deadline expired before dispatch"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Backend(e)
    }
}

/// What becomes of one queued request, told to whoever submitted it.
/// Both calls are made by the worker thread that popped the entry, so
/// neither may block on the serving queue.
pub trait Completion: Send {
    /// The entry was popped with its deadline still ahead, and goes to
    /// the backend next: from here to [`Completion::complete`] is this
    /// request's service and nobody else's. The request may still be
    /// stamped (the gateway parents the backend's trace spans under its
    /// dispatch span here). Not called for an entry that expired in the
    /// queue.
    fn dispatched(&mut self, _request: &mut InferenceRequest) {}

    /// The outcome, exactly once: the backend's response or error, a
    /// contained panic, or [`ServeError::DeadlineExpired`] for an entry
    /// dropped at the pop.
    fn complete(self: Box<Self>, result: Result<InferenceResponse, ServeError>);
}

/// The condvar completion behind a [`Ticket`].
#[derive(Debug)]
struct ResponseSlot {
    result: Mutex<Option<Result<InferenceResponse, ServeError>>>,
    ready: Condvar,
}

impl Completion for Arc<ResponseSlot> {
    fn complete(self: Box<Self>, result: Result<InferenceResponse, ServeError>) {
        *self.result.lock().expect("slot lock") = Some(result);
        self.ready.notify_all();
    }
}

/// Claim check for one submitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the request completes and returns its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backend`] if the backend refused or failed the
    /// request, [`ServeError::BackendPanicked`] if it panicked on it.
    pub fn wait(self) -> Result<InferenceResponse, ServeError> {
        let mut result = self.slot.result.lock().expect("slot lock");
        loop {
            match result.take() {
                Some(result) => return result,
                None => result = self.slot.ready.wait(result).expect("slot lock"),
            }
        }
    }
}

/// One queued request.
struct Entry {
    request: InferenceRequest,
    /// Checked by the worker that pops the entry; `None` never expires.
    deadline: Option<Instant>,
    completion: Box<dyn Completion>,
}

struct QueueState {
    queue: VecDeque<Entry>,
    shutting_down: bool,
    submitted: u64,
    completed: u64,
    expired: u64,
    /// Failed requests since the last success — the wedged-backend
    /// streak that [`ServingEngine::health`] compares against
    /// [`ServingConfig::failure_threshold`].
    consecutive_failures: u64,
}

struct Shared {
    backend: Arc<dyn Accelerator>,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cfg: ServingConfig,
}

/// One consistent snapshot of the serving queue's counters, taken
/// under a single lock acquisition by [`ServingEngine::queue_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests waiting in the queue right now.
    pub depth: usize,
    /// The configured queue capacity.
    pub capacity: usize,
    /// The configured worker count.
    pub workers: usize,
    /// Requests accepted since start.
    pub submitted: u64,
    /// Requests completed since start, whatever the outcome.
    pub completed: u64,
    /// Of those, the requests whose deadline had passed when a worker
    /// popped them: completed as expired, never handed to the backend.
    /// `submitted - depth - expired` is therefore how many were.
    pub expired: u64,
    /// Failed requests since the last successful one (the
    /// wedged-backend streak behind [`ServingEngine::health`]).
    pub consecutive_failures: u64,
    /// Whether shutdown has begun.
    pub shutting_down: bool,
}

/// A bounded-queue, multi-worker serving engine over any
/// [`Accelerator`] (see the crate docs for the full lifecycle).
pub struct ServingEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServingEngine {
    /// Spawns the worker pool over a prepared backend.
    pub fn start(backend: Arc<dyn Accelerator>, cfg: ServingConfig) -> Self {
        assert!(cfg.num_workers > 0, "at least one worker is required");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        let shared = Arc::new(Shared {
            backend,
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(cfg.queue_capacity),
                shutting_down: false,
                submitted: 0,
                completed: 0,
                expired: 0,
                consecutive_failures: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cfg,
        });
        let workers = (0..cfg.num_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("igcn-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        ServingEngine { shared, workers }
    }

    /// Enqueues one request, blocking while the queue is at capacity,
    /// and returns the [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`ServingEngine::shutdown`]
    /// has begun.
    pub fn submit(&self, request: InferenceRequest) -> Result<Ticket, ServeError> {
        let mut state = self.shared.state.lock().expect("queue lock");
        loop {
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() < self.shared.cfg.queue_capacity {
                break;
            }
            state = self.shared.not_full.wait(state).expect("queue lock");
        }
        let slot = Arc::new(ResponseSlot { result: Mutex::new(None), ready: Condvar::new() });
        let completion = Box::new(Arc::clone(&slot));
        self.enqueue(state, Entry { request, deadline: None, completion });
        Ok(Ticket { slot })
    }

    fn enqueue(&self, mut state: MutexGuard<'_, QueueState>, entry: Entry) {
        state.queue.push_back(entry);
        state.submitted += 1;
        drop(state);
        self.shared.not_empty.notify_one();
    }

    /// Enqueues one request without blocking, to be answered through
    /// `completion`: where [`ServingEngine::submit`] would wait for
    /// space, this refuses, so the caller can shed load explicitly —
    /// the gateway's admission path. A `deadline` is checked by the
    /// worker that pops the entry (see [`Completion`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the queue is at capacity,
    /// [`ServeError::ShuttingDown`] after shutdown has begun — each
    /// with the completion handed back, uncalled.
    pub fn try_submit<C: Completion + 'static>(
        &self,
        request: InferenceRequest,
        deadline: Option<Instant>,
        completion: C,
    ) -> Result<(), (ServeError, C)> {
        let state = self.shared.state.lock().expect("queue lock");
        if state.shutting_down {
            return Err((ServeError::ShuttingDown, completion));
        }
        if state.queue.len() >= self.shared.cfg.queue_capacity {
            return Err((ServeError::QueueFull, completion));
        }
        self.enqueue(state, Entry { request, deadline, completion: Box::new(completion) });
        Ok(())
    }

    /// Requests waiting in the queue right now.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().expect("queue lock").queue.len()
    }

    /// Requests accepted since start.
    pub fn submitted(&self) -> u64 {
        self.shared.state.lock().expect("queue lock").submitted
    }

    /// Requests completed since start.
    pub fn completed(&self) -> u64 {
        self.shared.state.lock().expect("queue lock").completed
    }

    /// One consistent snapshot of the queue counters (single lock
    /// acquisition — the gateway's `/stats` endpoint and its
    /// estimated-wait shedding both read this on the request path).
    pub fn queue_stats(&self) -> QueueStats {
        let state = self.shared.state.lock().expect("queue lock");
        QueueStats {
            depth: state.queue.len(),
            capacity: self.shared.cfg.queue_capacity,
            workers: self.shared.cfg.num_workers,
            submitted: state.submitted,
            completed: state.completed,
            expired: state.expired,
            consecutive_failures: state.consecutive_failures,
            shutting_down: state.shutting_down,
        }
    }

    /// Live health of the serving tier: degraded when the last
    /// [`ServingConfig::failure_threshold`] requests *all* failed (the
    /// backend looks wedged — erroring or panicking on everything it is
    /// handed), otherwise whatever the backend itself reports via
    /// [`Accelerator::health`]. A single successful request resets the
    /// streak; a request refused for its shape neither extends nor
    /// resets it. The gateway folds this into `/healthz`.
    pub fn health(&self) -> BackendHealth {
        let streak = self.shared.state.lock().expect("queue lock").consecutive_failures;
        let threshold = self.shared.cfg.failure_threshold;
        if threshold > 0 && streak >= u64::from(threshold) {
            return BackendHealth::Degraded {
                detail: format!(
                    "{streak} consecutive request failures (threshold {threshold}): \
                     the backend looks wedged"
                ),
            };
        }
        self.shared.backend.health()
    }

    /// The served backend.
    pub fn backend(&self) -> &Arc<dyn Accelerator> {
        &self.shared.backend
    }

    /// Graceful shutdown: stops accepting submissions, lets the workers
    /// drain every queued request, and joins them. Also performed by
    /// `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("queue lock");
            state.shutting_down = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("serving worker panicked");
        }
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_and_join();
        }
    }
}

impl fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingEngine")
            .field("backend", &self.shared.backend.name())
            .field("cfg", &self.shared.cfg)
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (entry, expired) = {
            let mut state = shared.state.lock().expect("queue lock");
            // Sleep until there is work or the engine drains + shuts down.
            let entry = loop {
                if let Some(entry) = state.queue.pop_front() {
                    break entry;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.not_empty.wait(state).expect("queue lock");
            };
            // The deadline check, at the pop — the last thing before the
            // entry would run: one that expired in the queue is counted
            // here and goes no further.
            let expired = entry.deadline.is_some_and(|d| Instant::now() >= d);
            if expired {
                state.completed += 1;
                state.expired += 1;
            }
            (entry, expired)
        };
        shared.not_full.notify_one();
        let Entry { mut request, mut completion, .. } = entry;
        if expired {
            completion.complete(Err(ServeError::DeadlineExpired));
            continue;
        }
        completion.dispatched(&mut request);
        // Catch backend panics: a dead worker would leave the
        // completion uncalled (its waiter hangs) and poison the join at
        // shutdown. The completion only runs after the call returns, so
        // unwinding cannot leave it half-told.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.backend.infer(&request)
        }));
        // Count the request *before* telling its completion, so a
        // caller that observed its response never reads a stale
        // completed() count (and health() already reflects the outcome
        // its ticket reported).
        {
            let mut state = shared.state.lock().expect("queue lock");
            state.completed += 1;
            match &result {
                Ok(Ok(_)) => state.consecutive_failures = 0,
                // Refused for its shape before the backend did any work:
                // the client's error, and no word on the backend's state.
                Ok(Err(CoreError::ShapeMismatch { .. })) => {}
                _ => state.consecutive_failures += 1,
            }
        }
        completion.complete(match result {
            Ok(answer) => answer.map_err(ServeError::Backend),
            Err(_panic) => Err(ServeError::BackendPanicked),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_core::accel::ExecReport;
    use igcn_core::IGcnEngine;
    use igcn_gnn::{GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::SparseFeatures;
    use std::time::Duration;

    const N: usize = 180;
    const DIM: usize = 12;

    fn prepared_backend() -> Arc<dyn Accelerator> {
        let g = HubIslandConfig::new(N, 8).noise_fraction(0.02).generate(17);
        let mut engine = IGcnEngine::builder(g.graph).build().unwrap();
        let model = GnnModel::gcn(DIM, 8, 4);
        let weights = ModelWeights::glorot(&model, 3);
        engine.prepare(&model, &weights).unwrap();
        Arc::new(engine)
    }

    fn request(seed: u64) -> InferenceRequest {
        InferenceRequest::new(SparseFeatures::random(N, DIM, 0.3, seed)).with_id(seed)
    }

    #[test]
    fn round_trip_matches_direct_infer() {
        let backend = prepared_backend();
        let serving = ServingEngine::start(Arc::clone(&backend), ServingConfig::default());
        let direct = backend.infer(&request(5)).unwrap();
        let response = serving.submit(request(5)).unwrap().wait().unwrap();
        assert_eq!(response.id, 5);
        assert_eq!(response.output, direct.output);
        serving.shutdown();
    }

    #[test]
    fn four_submitters_over_two_workers_complete_everything_exactly_once() {
        const SUBMITTERS: u64 = 4;
        const EACH: u64 = 200;
        let cfg = ServingConfig::default().with_workers(2);
        let backend = prepared_backend();
        // One inference, generously: the slowest of a few on this box.
        let one_inference = (0..5)
            .map(|seed| {
                let started = Instant::now();
                backend.infer(&request(seed)).unwrap();
                started.elapsed()
            })
            .max()
            .unwrap();
        let serving = ServingEngine::start(backend, cfg);
        /// A [`Probe`] that also says when each call was made.
        struct Timed(std::sync::mpsc::Sender<(u64, String, Instant)>, u64);
        impl Completion for Timed {
            fn dispatched(&mut self, _: &mut InferenceRequest) {
                self.0.send((self.1, "dispatched".to_string(), Instant::now())).unwrap();
            }
            fn complete(self: Box<Self>, result: Result<InferenceResponse, ServeError>) {
                let outcome = result.map_or_else(|e| e.to_string(), |_| "ok".to_string());
                self.0.send((self.1, outcome, Instant::now())).unwrap();
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let alone_waits = thread::scope(|scope| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let (serving, tx) = (&serving, tx.clone());
                    scope.spawn(move || {
                        let mut alone_waits = Vec::new();
                        for i in 0..EACH {
                            let id = t * EACH + i;
                            // Every fourth request already expired; every
                            // tenth one is sent to a queue that has been
                            // allowed to empty, so that it is alone in it.
                            let deadline = (i % 4 == 3).then(Instant::now);
                            if i % 10 == 0 {
                                while serving.queue_stats().submitted
                                    != serving.queue_stats().completed
                                {
                                    thread::yield_now();
                                }
                            }
                            let alone = serving.pending() == 0;
                            let started = Instant::now();
                            while serving
                                .try_submit(request(id), deadline, Timed(tx.clone(), id))
                                .is_err()
                            {
                                thread::yield_now(); // queue full: backpressure
                            }
                            if alone && deadline.is_none() {
                                alone_waits.push((id, started));
                            }
                        }
                        alone_waits
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        drop(tx);
        // Every completion exactly once: a dispatch then an outcome, or
        // the expiry alone.
        let mut dispatched_at = std::collections::BTreeMap::new();
        let mut outcomes = std::collections::BTreeMap::<u64, Vec<String>>::new();
        while outcomes
            .values()
            .filter(|calls| calls.last().is_some_and(|c| c != "dispatched"))
            .count()
            < (SUBMITTERS * EACH) as usize
        {
            let (id, what, at) = rx.recv_timeout(Duration::from_secs(60)).expect("every outcome");
            if what == "dispatched" {
                dispatched_at.insert(id, at);
            }
            outcomes.entry(id).or_default().push(what);
        }
        let expired = ServeError::DeadlineExpired.to_string();
        for (id, calls) in &outcomes {
            let ok = *calls == ["dispatched", "ok"] || *calls == [expired.clone()];
            assert!(ok, "request {id}: {calls:?}");
        }
        let stats = serving.queue_stats();
        assert_eq!(stats.submitted, SUBMITTERS * EACH);
        assert_eq!((stats.completed, stats.depth), (SUBMITTERS * EACH, 0));
        let ran = outcomes.values().filter(|calls| calls.len() == 2).count() as u64;
        assert_eq!(ran + stats.expired, stats.submitted, "completed + expired == submitted");
        assert!(stats.expired >= SUBMITTERS * EACH / 4, "expired {}", stats.expired);
        // A request that had the queue to itself when it was sent waits
        // for a worker to come free — at most one inference; never
        // longer (with a margin for what a shared box adds).
        assert!(alone_waits.len() >= 20, "only {} requests were sent alone", alone_waits.len());
        let bound = one_inference * 2 + Duration::from_secs(2);
        for (id, started) in alone_waits {
            let waited = dispatched_at[&id].saturating_duration_since(started);
            assert!(
                waited <= bound,
                "request {id} waited {waited:?} for dispatch (bound {bound:?})"
            );
        }
        serving.shutdown();
    }

    /// A request the backend refuses for its shape (one feature column
    /// too many).
    fn wrong_width(id: u64) -> InferenceRequest {
        InferenceRequest::new(SparseFeatures::random(N, DIM + 1, 0.3, id)).with_id(id)
    }

    #[test]
    fn a_malformed_request_fails_alone_between_its_neighbours() {
        let gated = Gated::new(prepared_backend());
        let cfg = ServingConfig::default().with_workers(1);
        let serving = ServingEngine::start(gated.clone() as Arc<dyn Accelerator>, cfg);
        // r0 holds the one worker inside the backend; good, wrong-width,
        // good queue up behind it.
        let first = serving.submit(request(0)).unwrap();
        gated.wait_entered(1);
        let queued = [request(1), wrong_width(2), request(3)].map(|r| serving.submit(r).unwrap());
        gated.open_gate();
        assert_eq!(first.wait().unwrap().id, 0);
        let [before, bad, after] = queued.map(Ticket::wait);
        assert_eq!(before.unwrap().id, 1);
        assert!(
            matches!(bad, Err(ServeError::Backend(CoreError::ShapeMismatch { .. }))),
            "{bad:?}"
        );
        assert_eq!(after.unwrap().id, 3);
        serving.shutdown();
    }

    #[test]
    fn malformed_requests_do_not_make_a_healthy_backend_look_wedged() {
        let cfg = ServingConfig::default().with_workers(1).with_failure_threshold(3);
        let serving = ServingEngine::start(prepared_backend(), cfg);
        for id in 0..3 {
            let refused = serving.submit(wrong_width(id)).unwrap().wait();
            assert!(matches!(refused, Err(ServeError::Backend(CoreError::ShapeMismatch { .. }))));
        }
        // The streak is committed before the ticket wakes.
        assert_eq!(serving.queue_stats().consecutive_failures, 0);
        assert!(serving.health().is_ready(), "{:?}", serving.health());
        serving.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let backend = prepared_backend();
        let serving = ServingEngine::start(backend, ServingConfig::default().with_workers(2));
        let tickets: Vec<Ticket> = (0..20).map(|id| serving.submit(request(id)).unwrap()).collect();
        serving.shutdown(); // must not drop queued work
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("queued request still answered");
            assert_eq!(response.id, i as u64);
        }
    }

    /// Wraps a backend so every `infer` blocks until the test lets it
    /// through — makes queue-occupancy and ordering tests deterministic.
    struct Gated {
        inner: Arc<dyn Accelerator>,
        /// Calls that may still pass; `usize::MAX` is an open gate.
        permits: std::sync::Mutex<usize>,
        changed: std::sync::Condvar,
        entered: std::sync::atomic::AtomicUsize,
    }

    impl Gated {
        fn new(inner: Arc<dyn Accelerator>) -> Arc<Self> {
            Arc::new(Gated {
                inner,
                permits: std::sync::Mutex::new(0),
                changed: std::sync::Condvar::new(),
                entered: std::sync::atomic::AtomicUsize::new(0),
            })
        }

        fn open_gate(&self) {
            *self.permits.lock().unwrap() = usize::MAX;
            self.changed.notify_all();
        }

        /// Lets exactly one call — blocked now, or the next to arrive —
        /// through a gate that is shut.
        fn let_one_through(&self) {
            *self.permits.lock().unwrap() += 1;
            self.changed.notify_all();
        }

        fn wait_entered(&self, n: usize) {
            while self.entered.load(std::sync::atomic::Ordering::SeqCst) < n {
                thread::sleep(Duration::from_millis(1));
            }
        }

        fn block_until_open(&self) {
            self.entered.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut permits = self.permits.lock().unwrap();
            while *permits == 0 {
                permits = self.changed.wait(permits).unwrap();
            }
            if *permits != usize::MAX {
                *permits -= 1;
            }
        }
    }

    impl Accelerator for Gated {
        fn name(&self) -> String {
            self.inner.name()
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
            self.block_until_open();
            self.inner.infer(request)
        }
        fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
            self.inner.report(request)
        }
    }

    /// What a [`Probe`] saw: `(request id, "dispatched")`, then
    /// `(request id, outcome)`.
    type Seen = (u64, String);

    /// A completion that reports both of its calls down a channel.
    struct Probe {
        id: u64,
        seen: std::sync::mpsc::Sender<Seen>,
    }

    impl Completion for Probe {
        fn dispatched(&mut self, request: &mut InferenceRequest) {
            assert_eq!(request.id, self.id, "told about somebody else's request");
            self.seen.send((self.id, "dispatched".to_string())).unwrap();
        }

        fn complete(self: Box<Self>, result: Result<InferenceResponse, ServeError>) {
            let outcome = match result {
                Ok(response) => {
                    assert_eq!(response.id, self.id, "handed somebody else's response");
                    "ok".to_string()
                }
                Err(e) => e.to_string(),
            };
            self.seen.send((self.id, outcome)).unwrap();
        }
    }

    fn probe(id: u64, seen: &std::sync::mpsc::Sender<Seen>) -> Probe {
        Probe { id, seen: seen.clone() }
    }

    /// Everything the probes of a finished engine saw, per request id.
    fn seen_by_id(
        seen: std::sync::mpsc::Receiver<Seen>,
    ) -> std::collections::BTreeMap<u64, Vec<String>> {
        let mut by_id = std::collections::BTreeMap::<u64, Vec<String>>::new();
        for (id, what) in seen.try_iter() {
            by_id.entry(id).or_default().push(what);
        }
        by_id
    }

    #[test]
    fn try_submit_sheds_instead_of_blocking_and_stats_are_consistent() {
        let gated = Gated::new(prepared_backend());
        let cfg = ServingConfig::default().with_workers(1).with_queue_capacity(1);
        let serving = ServingEngine::start(gated.clone() as Arc<dyn Accelerator>, cfg);
        let (tx, rx) = std::sync::mpsc::channel();

        // r1 is picked up by the (gated) worker, r2 occupies the queue.
        assert!(serving.try_submit(request(1), None, probe(1, &tx)).is_ok());
        gated.wait_entered(1);
        assert!(serving.try_submit(request(2), None, probe(2, &tx)).is_ok());
        let stats = serving.queue_stats();
        assert_eq!(stats.depth, 1);
        assert_eq!(stats.capacity, 1);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.submitted, 2);
        assert!(!stats.shutting_down);

        // The queue is full: try_submit must return immediately with
        // QueueFull and the completion, uncalled — not block like submit.
        match serving.try_submit(request(3), None, probe(3, &tx)) {
            Err((ServeError::QueueFull, returned)) => assert_eq!(returned.id, 3),
            other => panic!("expected QueueFull, got {:?}", other.map_err(|(e, _)| e)),
        }

        gated.open_gate();
        serving.shutdown();
        let done = ["dispatched".to_string(), "ok".to_string()];
        let seen = seen_by_id(rx);
        assert_eq!(seen.get(&1).map(Vec::as_slice), Some(&done[..]));
        assert_eq!(seen.get(&2).map(Vec::as_slice), Some(&done[..]));
        assert_eq!(seen.get(&3), None, "a refused completion is never called");
    }

    #[test]
    fn a_deadline_that_lapsed_in_the_queue_is_dropped_at_the_pop_and_counted() {
        let gated = Gated::new(prepared_backend());
        let cfg = ServingConfig::default().with_workers(1);
        let serving = ServingEngine::start(gated.clone() as Arc<dyn Accelerator>, cfg);
        let (tx, rx) = std::sync::mpsc::channel();

        // r1 holds the one worker inside the backend; r2 (already
        // expired), r3 (no deadline) and r4 (a deadline far away) queue
        // up behind it and are popped one by one once the gate opens.
        assert!(serving.try_submit(request(1), None, probe(1, &tx)).is_ok());
        gated.wait_entered(1);
        let now = Instant::now();
        assert!(serving.try_submit(request(2), Some(now), probe(2, &tx)).is_ok());
        assert!(serving.try_submit(request(3), None, probe(3, &tx)).is_ok());
        let far = now + Duration::from_secs(3600);
        assert!(serving.try_submit(request(4), Some(far), probe(4, &tx)).is_ok());
        assert_eq!(serving.queue_stats().expired, 0, "nothing is checked before the pop");

        gated.open_gate();
        serving.shutdown();
        let seen = seen_by_id(rx);
        assert_eq!(
            seen.get(&2).map(Vec::as_slice),
            Some(&[ServeError::DeadlineExpired.to_string()][..]),
            "an expired entry is completed as expired and never dispatched"
        );
        for id in [1, 3, 4] {
            assert_eq!(seen[&id], ["dispatched", "ok"], "request {id}");
        }
        // Three backend calls — r1, r3, r4 — and none for r2.
        assert_eq!(gated.entered.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn one_worker_finishes_a_request_before_it_dispatches_the_next() {
        let gated = Gated::new(prepared_backend());
        let cfg = ServingConfig::default().with_workers(1);
        let serving = ServingEngine::start(gated.clone() as Arc<dyn Accelerator>, cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        // r0 holds the worker inside the backend while r1..r3 become a
        // backlog behind it.
        assert!(serving.try_submit(request(0), None, probe(0, &tx)).is_ok());
        gated.wait_entered(1);
        for id in 1..4 {
            assert!(serving.try_submit(request(id), None, probe(id, &tx)).is_ok());
        }
        gated.open_gate();
        serving.shutdown();
        // All from the one worker thread, so in the order it made them:
        // each request's outcome before the next request's dispatch.
        let seen: Vec<Seen> = rx.try_iter().collect();
        let expected: Vec<Seen> = (0..4)
            .flat_map(|id| [(id, "dispatched".to_string()), (id, "ok".to_string())])
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn a_deadline_that_lapses_behind_a_running_request_is_seen_before_its_own_turn() {
        let gated = Gated::new(prepared_backend());
        let cfg = ServingConfig::default().with_workers(1);
        let serving = ServingEngine::start(gated.clone() as Arc<dyn Accelerator>, cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        // r1 holds the worker; r2 and r3 queue up behind it, r3 with a
        // deadline that is still ahead when r2 is popped.
        assert!(serving.try_submit(request(1), None, probe(1, &tx)).is_ok());
        gated.wait_entered(1);
        assert!(serving.try_submit(request(2), None, probe(2, &tx)).is_ok());
        let deadline = Instant::now() + Duration::from_millis(100);
        assert!(serving.try_submit(request(3), Some(deadline), probe(3, &tx)).is_ok());
        // r1 out, r2 in — and r3's deadline lapses while r2 is inside
        // the backend. It is r3's own pop, after r2, that looks at it.
        gated.let_one_through();
        gated.wait_entered(2);
        while Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        gated.open_gate();
        serving.shutdown();
        let seen = seen_by_id(rx);
        for id in [1, 2] {
            assert_eq!(seen[&id], ["dispatched", "ok"], "request {id}");
        }
        assert_eq!(seen[&3], [ServeError::DeadlineExpired.to_string()]);
        assert_eq!(gated.entered.load(std::sync::atomic::Ordering::SeqCst), 2, "r3 never ran");
    }

    #[test]
    fn expiry_is_counted_and_the_counters_reconcile() {
        let backend = prepared_backend();
        let serving = ServingEngine::start(backend, ServingConfig::default().with_workers(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let past = Instant::now();
        for id in 0..5 {
            let deadline = (id % 2 == 0).then_some(past);
            assert!(serving.try_submit(request(id), deadline, probe(id, &tx)).is_ok());
        }
        // All five completions have run once five outcomes are in.
        let mut outcomes = 0;
        while outcomes < 5 {
            let (_, what) = rx.recv_timeout(Duration::from_secs(30)).expect("five outcomes");
            outcomes += usize::from(what != "dispatched");
        }
        let stats = serving.queue_stats();
        assert_eq!((stats.submitted, stats.completed, stats.expired, stats.depth), (5, 5, 3, 0));
        serving.shutdown();
    }

    #[test]
    fn try_submit_refuses_after_shutdown() {
        let backend = prepared_backend();
        let serving = ServingEngine::start(Arc::clone(&backend), ServingConfig::default());
        let shared = Arc::clone(&serving.shared);
        serving.shutdown();
        let probe_engine = ServingEngine { shared, workers: Vec::new() };
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(matches!(
            probe_engine.try_submit(request(1), None, probe(1, &tx)),
            Err((ServeError::ShuttingDown, _))
        ));
        assert!(probe_engine.queue_stats().shutting_down);
        assert!(rx.try_recv().is_err(), "a refused completion is never called");
    }

    /// A backend that is its `infer` closure, over a two-node graph.
    struct Stub<F> {
        graph: igcn_graph::CsrGraph,
        infer: F,
        health: BackendHealth,
    }

    fn stub<F>(infer: F) -> Stub<F>
    where
        F: Fn(&InferenceRequest) -> Result<InferenceResponse, CoreError> + Send + Sync,
    {
        let graph = igcn_graph::CsrGraph::from_undirected_edges(2, &[(0, 1)]).unwrap();
        Stub { graph, infer, health: BackendHealth::Ready }
    }

    /// An answer of the right id and nothing else.
    fn answered(request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        Ok(InferenceResponse {
            id: request.id,
            output: igcn_linalg::DenseMatrix::zeros(1, 1),
            report: Default::default(),
        })
    }

    fn failed(detail: &str) -> CoreError {
        CoreError::BackendFailed { backend: "stub".to_string(), detail: detail.to_string() }
    }

    impl<F> Accelerator for Stub<F>
    where
        F: Fn(&InferenceRequest) -> Result<InferenceResponse, CoreError> + Send + Sync,
    {
        fn name(&self) -> String {
            "stub".to_string()
        }
        fn graph(&self) -> &igcn_graph::CsrGraph {
            &self.graph
        }
        fn prepare(
            &mut self,
            _: &igcn_gnn::GnnModel,
            _: &igcn_gnn::ModelWeights,
        ) -> Result<(), CoreError> {
            Ok(())
        }
        fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
            (self.infer)(request)
        }
        fn report(&self, _: &InferenceRequest) -> Result<ExecReport, CoreError> {
            Ok(Default::default())
        }
        fn health(&self) -> BackendHealth {
            self.health.clone()
        }
    }

    #[test]
    fn backend_panics_are_contained() {
        // A panicking backend must not kill the worker: the request gets
        // an error, later requests still serve, shutdown joins cleanly.
        let armed = std::sync::atomic::AtomicBool::new(true);
        let backend = stub(move |request| {
            if armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("boom");
            }
            answered(request)
        });
        let serving =
            ServingEngine::start(Arc::new(backend), ServingConfig::default().with_workers(1));
        let first = serving.submit(request(1)).unwrap();
        assert_eq!(first.wait(), Err(ServeError::BackendPanicked));
        // The worker survived and keeps serving.
        let second = serving.submit(request(2)).unwrap();
        assert_eq!(second.wait().unwrap().id, 2);
        serving.shutdown();
    }

    #[test]
    fn a_completion_runs_exactly_once_whatever_becomes_of_the_request() {
        // By request id: 0 mod 3 succeeds, 1 mod 3 is refused by the
        // backend, 2 mod 3 panics inside it.
        let backend = stub(|request| match request.id % 3 {
            0 => answered(request),
            1 => Err(failed("refused")),
            _ => panic!("scripted panic"),
        });
        let serving =
            ServingEngine::start(Arc::new(backend), ServingConfig::default().with_workers(2));
        let (tx, rx) = std::sync::mpsc::channel();
        for id in 0..12 {
            assert!(serving.try_submit(request(id), None, probe(id, &tx)).is_ok());
        }
        // Shut down with most of them still queued: the drain completes
        // every one of them too.
        serving.shutdown();
        let seen = seen_by_id(rx);
        assert_eq!(seen.len(), 12);
        for (id, calls) in seen {
            let outcome = match id % 3 {
                0 => "ok".to_string(),
                1 => ServeError::Backend(failed("refused")).to_string(),
                _ => ServeError::BackendPanicked.to_string(),
            };
            assert_eq!(calls, ["dispatched".to_string(), outcome], "request {id}");
        }
    }

    #[test]
    fn wedged_backend_flips_health_degraded_until_a_success_resets_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Fails every request while set — the "wedged" backend: alive
        // enough to answer, wrong every time.
        let wedged = Arc::new(AtomicBool::new(true));
        let backend = {
            let wedged = Arc::clone(&wedged);
            stub(move |request| {
                if wedged.load(Ordering::SeqCst) {
                    return Err(failed("simulated wedge"));
                }
                answered(request)
            })
        };
        let serving = ServingEngine::start(
            Arc::new(backend),
            ServingConfig::default().with_workers(1).with_failure_threshold(3),
        );

        // Two failures: under the threshold, still ready. The streak is
        // committed before the ticket wakes, so waiting is enough.
        for seed in 0..2 {
            assert!(serving.submit(request(seed)).unwrap().wait().is_err());
        }
        assert!(serving.health().is_ready(), "streak of 2 is under the threshold");
        assert_eq!(serving.queue_stats().consecutive_failures, 2);

        // The third consecutive failure crosses it.
        assert!(serving.submit(request(2)).unwrap().wait().is_err());
        match serving.health() {
            BackendHealth::Degraded { detail } => {
                assert!(detail.contains("3 consecutive"), "detail: {detail}");
                assert!(detail.contains("wedged"), "detail: {detail}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }

        // One success resets the streak and the tier is ready again.
        wedged.store(false, Ordering::SeqCst);
        assert_eq!(serving.submit(request(3)).unwrap().wait().unwrap().id, 3);
        assert!(serving.health().is_ready());
        assert_eq!(serving.queue_stats().consecutive_failures, 0);
        serving.shutdown();
    }

    #[test]
    fn health_delegates_to_the_backend_when_the_streak_is_clear() {
        let health = BackendHealth::Degraded { detail: "2/3 shards down".to_string() };
        let backend = Stub { health, ..stub(answered) };
        let serving = ServingEngine::start(Arc::new(backend), ServingConfig::default());
        // No failures at the serving tier, but the backend itself says
        // it is degraded — the tier must not mask that.
        match serving.health() {
            BackendHealth::Degraded { detail } => assert!(detail.contains("shards down")),
            other => panic!("expected backend degradation to surface, got {other:?}"),
        }
        serving.shutdown();
    }

    #[test]
    fn drop_is_a_graceful_shutdown() {
        let backend = prepared_backend();
        let ticket;
        {
            let serving = ServingEngine::start(backend, ServingConfig::default());
            ticket = serving.submit(request(3)).unwrap();
        } // drop joins the workers after draining
        assert_eq!(ticket.wait().unwrap().id, 3);
    }
}
