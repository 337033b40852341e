//! Offline stand-in for a *persistent* scoped thread pool.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so it vendors the small parallel-execution subset it needs
//! instead of depending on `rayon`: a [`ThreadPool`] whose workers are
//! spawned **once** at [`ThreadPool::new`] and stay parked on a shared
//! job queue for the pool's whole lifetime, and one entry point,
//! [`ThreadPool::scope`], that runs borrowed tasks on them.
//!
//! Earlier revisions spawned OS threads inside every `scope` call;
//! per-layer dispatch in the island engine paid thread-creation latency
//! on every GNN layer. The persistent design moves that cost to pool
//! construction: a `scope` call only pushes boxed closures onto the
//! queue and waits on a completion latch.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism at the call site.** The pool only schedules: a task
//!    writes where its caller points it, so callers that merge results
//!    in a fixed order behave identically at any thread count.
//! 2. **Soundness of borrowed tasks.** Tasks may borrow from the
//!    caller's stack (`'env`). The queue stores lifetime-erased boxes
//!    (the one `unsafe` in this crate); safety rests on the scope
//!    guard, which blocks until the latch counts every spawned task as
//!    finished *before* the borrowed frame can unwind — including when
//!    the scope body itself panics. Worker panics are caught per task,
//!    carried through the latch, and re-raised at scope exit, exactly
//!    like a panic in a sequential loop.
//! 3. **Caller participation.** The submitting thread is one of the
//!    pool's `threads`: while waiting on the latch it drains queued
//!    jobs, so a pool of width N applies N threads to the work even
//!    though only N−1 OS threads are parked in the pool.
//!
//! With `threads == 1` a scope runs its tasks inline on the calling
//! thread — no worker threads exist at all.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// A job on the shared queue. Closures are lifetime-erased at spawn
/// time; the scope guard guarantees they run before their borrows die.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between pool handles and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    job_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().expect("job queue lock").push_back(job);
        self.job_ready.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().expect("job queue lock").pop_front()
    }
}

/// Completion latch of one `scope` call: counts outstanding tasks and
/// stores the first task panic for re-raising at scope exit.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            state: Mutex::new(LatchState { pending: 0, panic: None }),
            done: Condvar::new(),
        })
    }

    fn add_task(&self) {
        self.state.lock().expect("latch lock").pending += 1;
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut s = self.state.lock().expect("latch lock");
        s.pending -= 1;
        if s.panic.is_none() {
            s.panic = panic;
        }
        if s.pending == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch lock").pending == 0
    }

    /// Blocks until every task completed, helping with queued jobs
    /// (possibly other scopes') while waiting. The captured panic
    /// payload (if any) is deliberately left in the latch for the
    /// caller to take and re-raise.
    fn wait(&self, shared: &Shared) {
        loop {
            if self.is_done() {
                return;
            }
            // Help: run whatever is queued. Our own still-queued tasks
            // are guaranteed to drain this way even if every worker is
            // busy elsewhere.
            if let Some(job) = shared.try_pop() {
                job();
                continue;
            }
            // Nothing queued: our remaining tasks are in flight on
            // workers. Park on the latch until they finish.
            let s = self.state.lock().expect("latch lock");
            if s.pending == 0 {
                return;
            }
            // A short timeout re-checks the queue so a job enqueued
            // between `try_pop` and `wait` cannot strand us parked.
            let _ =
                self.done.wait_timeout(s, std::time::Duration::from_millis(1)).expect("latch lock");
        }
    }

    /// Removes the first captured task panic, if any (call after
    /// [`Latch::wait`]).
    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.state.lock().expect("latch lock").panic.take()
    }
}

/// Joins the workers when the last pool handle drops.
struct PoolCore {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        // No scope can be active here (scopes borrow the pool), so the
        // queue is empty: signal shutdown and join. The store happens
        // under the queue mutex so it cannot race a worker between its
        // shutdown check and its condvar wait (lost wakeup → a worker
        // parked forever → this join would hang).
        {
            let _queue = self.shared.queue.lock().expect("job queue lock");
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.job_ready.notify_all();
        for handle in self.handles.lock().expect("handle list lock").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fixed-width thread pool with persistent workers.
///
/// Cloning is cheap and shares the same workers; the workers join when
/// the last clone drops.
///
/// # Example
///
/// ```
/// use threadpool::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let mut squares = [1u64, 2, 3, 4, 5];
/// pool.scope(|s| {
///     for x in squares.iter_mut() {
///         s.spawn(move || *x *= *x);
///     }
/// });
/// assert_eq!(squares, [1, 4, 9, 16, 25]);
/// ```
#[derive(Clone)]
pub struct ThreadPool {
    core: Arc<PoolCore>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.core.threads).finish()
    }
}

impl ThreadPool {
    /// Creates a pool that runs work on up to `threads` OS threads
    /// (including the calling thread, which always participates):
    /// `threads - 1` persistent workers are spawned here and live until
    /// the last pool handle drops.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for _ in 1..threads {
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || worker_loop(&shared)));
        }
        ThreadPool { core: Arc::new(PoolCore { shared, threads, handles: Mutex::new(handles) }) }
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Runs `f` with a [`PoolScope`] that can spawn borrowed tasks onto
    /// the pool; every spawned task completes before `scope` returns
    /// (scoped join — the guard waits even when `f` unwinds, which is
    /// what makes the borrow erasure sound). With `threads == 1` tasks
    /// run inline at spawn time.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any spawned task at scope exit.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'env>) -> R,
    {
        if self.core.threads == 1 {
            return f(&PoolScope { pool: None, _env: std::marker::PhantomData });
        }
        let latch = Latch::new();
        let scope = PoolScope {
            pool: Some(ScopeQueue {
                shared: Arc::clone(&self.core.shared),
                latch: Arc::clone(&latch),
            }),
            _env: std::marker::PhantomData,
        };
        // The guard's Drop waits for every spawned task, so a panic in
        // `f` cannot return borrowed frames to the caller while tasks
        // still reference them.
        let guard = ScopeGuard { shared: &self.core.shared, latch: &latch };
        let result = f(&scope);
        drop(scope);
        drop(guard); // waits; task panics surface below
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
        result
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("job queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.job_ready.wait(queue).expect("job queue lock");
            }
        };
        // Jobs are latch wrappers that catch their own panics; the
        // outer catch is belt and braces so a worker can never die.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// The spawn half of an active scope (multi-threaded pools only).
struct ScopeQueue {
    shared: Arc<Shared>,
    latch: Arc<Latch>,
}

/// Waits for the scope's tasks on drop — the soundness anchor for the
/// lifetime erasure (runs on both the normal and unwinding paths).
struct ScopeGuard<'scope> {
    shared: &'scope Shared,
    latch: &'scope Arc<Latch>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        // Any task panic payload stays in the latch; the normal path
        // re-raises it after this drop. On the unwinding path the
        // body's own panic continues and the task payload is dropped
        // with the latch.
        self.latch.wait(self.shared);
    }
}

/// Handle for spawning borrowed tasks inside [`ThreadPool::scope`];
/// `'env` is the lifetime of the environment tasks may borrow from.
pub struct PoolScope<'env> {
    /// `None` on single-threaded pools: spawn runs the task inline.
    pool: Option<ScopeQueue>,
    _env: std::marker::PhantomData<&'env ()>,
}

impl std::fmt::Debug for PoolScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope").field("inline", &self.pool.is_none()).finish()
    }
}

impl<'env> PoolScope<'env> {
    /// Enqueues `task` on the pool's persistent work queue; it completes
    /// before the enclosing [`ThreadPool::scope`] returns.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        match &self.pool {
            Some(queue) => {
                queue.latch.add_task();
                let latch = Arc::clone(&queue.latch);
                let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    latch.complete(result.err());
                });
                // SAFETY: the wrapper may borrow from 'env. The scope
                // guard blocks (normal and unwinding exit alike) until
                // the latch records this task as complete, so the
                // closure never outlives the borrows it captures. Only
                // the lifetime is transmuted; the layout of a boxed
                // trait object does not depend on its lifetime bound.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapper) };
                queue.shared.push(job);
            }
            None => task(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// The sum of `items`, one scope task per item.
    fn scoped_sum(pool: &ThreadPool, items: &[u64]) -> u64 {
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for &x in items {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(x, Ordering::SeqCst);
                });
            }
        });
        total.into_inner()
    }

    /// A scope whose task for item 2 of four panics with `message`.
    fn panicking_scope(pool: &ThreadPool, message: &str) {
        pool.scope(|s| {
            for x in 0..4u32 {
                s.spawn(move || assert!(x != 2, "{message}"));
            }
        });
    }

    #[test]
    fn scope_joins_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn scope_tasks_borrow_environment() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4];
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1);
        let main_id = thread::current().id();
        pool.scope(|s| {
            s.spawn(move || assert_eq!(thread::current().id(), main_id));
        });
        assert_eq!(scoped_sum(&pool, &[1, 2, 3]), 6);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = ThreadPool::new(4);
        assert_eq!(scoped_sum(&pool, &[]), 0);
        assert_eq!(pool.scope(|_| 7), 7, "a scope with no tasks returns its body's value");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(|| panicking_scope(&pool, "boom"));
        assert!(result.is_err(), "task panic must reach the caller");
    }

    #[test]
    fn scope_task_panic_propagates_with_its_payload() {
        // A panic inside a scope-spawned task must reach the caller,
        // carrying the original message — not be swallowed by the scope
        // guard's wait.
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("slab fill exploded"));
            });
        });
        let payload = result.expect_err("scope must re-raise the task panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("slab fill exploded"), "payload lost: {message:?}");
        // And the pool keeps serving afterwards.
        assert_eq!(scoped_sum(&pool, &[1, 2]), 3);
    }

    #[test]
    fn pool_survives_a_panicking_scope() {
        // After a task panic the same workers must keep serving.
        let pool = ThreadPool::new(4);
        for round in 0..3u64 {
            let result =
                std::panic::catch_unwind(|| panicking_scope(&pool, &format!("boom {round}")));
            assert!(result.is_err());
            assert_eq!(scoped_sum(&pool, &[1 + round, 2 + round, 3 + round]), 6 + 3 * round);
        }
    }

    #[test]
    fn sequential_scopes_reuse_the_same_workers() {
        let pool = ThreadPool::new(3);
        let seen = Mutex::new(std::collections::HashSet::new());
        for _ in 0..20 {
            pool.scope(|s| {
                for _ in 0..4 {
                    let seen = &seen;
                    s.spawn(move || {
                        seen.lock().unwrap().insert(thread::current().id());
                    });
                }
            });
        }
        // 2 workers + the caller: at most 3 distinct threads ever run
        // tasks, no matter how many scopes were opened.
        assert!(seen.lock().unwrap().len() <= 3);
    }

    #[test]
    fn clones_share_workers_and_drop_cleanly() {
        let pool = ThreadPool::new(4);
        let clone = pool.clone();
        let a = scoped_sum(&pool, &[1, 2]);
        let b = scoped_sum(&clone, &[3, 4]);
        assert_eq!((a, b), (3, 7));
        drop(pool);
        // The clone still works after the original handle drops.
        assert_eq!(scoped_sum(&clone, &[5]), 5);
    }

    #[test]
    fn concurrent_scopes_from_clones_do_not_interfere() {
        let pool = ThreadPool::new(4);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                thread::spawn(move || {
                    let input: Vec<u64> = (0..200).map(|x| x + t).collect();
                    scoped_sum(&pool, &input)
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let sum = h.join().expect("no panic");
            assert_eq!(sum, (0..200u64).sum::<u64>() + 200 * t as u64);
        }
    }
}
