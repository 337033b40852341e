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
//!    guard, which blocks until every spawned task has finished and
//!    dropped its handle on the scope's latch *before* the borrowed
//!    frame can unwind — including when the scope body itself panics.
//!    A task's box is freed before its handle drops, so a returned
//!    scope leaves nothing of its own allocated on another thread.
//!    Worker panics are caught per task, carried through the latch, and
//!    re-raised at scope exit, exactly like a panic in a sequential
//!    loop.
//! 3. **Caller participation.** The submitting thread is one of the
//!    pool's `threads`: while waiting on the latch it runs its own
//!    scope's jobs that no worker has taken, so a pool of width N
//!    applies N threads to the work even though only N−1 OS threads are
//!    parked in the pool, and a scope completes even when every worker
//!    is busy with other scopes. It takes no other scope's job, so a
//!    call never waits on work that is not its own.
//!
//! With `threads == 1` a scope runs its tasks inline on the calling
//! thread — no worker threads exist at all.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// A task on the shared queue, lifetime-erased at spawn time, with a
/// handle on its scope's latch. Running it runs — and frees — the task
/// first and drops the handle last, so a scope that sees every handle
/// dropped has nothing of its own left on another thread.
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

impl Job {
    fn run(self) {
        let Job { task, latch } = self;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(task)) {
            latch.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(panic);
        }
        let owner = latch.owner.clone();
        drop(latch);
        owner.unpark();
    }
}

/// Queue state shared between pool handles and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    job_ready: Condvar,
    shutdown: AtomicBool,
    /// Workers running so far, signalled by each as it starts.
    started: Mutex<usize>,
    all_started: Condvar,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().expect("job queue lock").push_back(job);
        self.job_ready.notify_one();
    }

    /// Removes the first queued job of the scope `latch` belongs to.
    fn take_own(&self, latch: &Arc<Latch>) -> Option<Job> {
        let mut queue = self.queue.lock().expect("job queue lock");
        let at = queue.iter().position(|job| Arc::ptr_eq(&job.latch, latch))?;
        queue.remove(at)
    }
}

/// Completion latch of one `scope` call. The scope holds one handle
/// and each of its queued or running jobs one more, so the scope's is
/// the last exactly when every task has finished; the first task panic
/// waits here to be re-raised at scope exit.
struct Latch {
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The thread that opened the scope, woken as each job finishes.
    owner: Thread,
}

impl Latch {
    /// Removes the first captured task panic, if any (call after
    /// [`ScopeQueue::wait`]).
    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner).take()
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
    /// the last pool handle drops. It returns once every worker runs, so
    /// what the runtime frees as a thread starts is freed before the
    /// pool is first used, never during some later scope.
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
            started: Mutex::new(0),
            all_started: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for _ in 1..threads {
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || {
                *shared.started.lock().expect("start count lock") += 1;
                shared.all_started.notify_one();
                worker_loop(&shared)
            }));
        }
        let started = shared.started.lock().expect("start count lock");
        let waiting = shared.all_started.wait_while(started, |n| *n < handles.len());
        drop(waiting.expect("start count lock"));
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
        let latch = Latch { panic: Mutex::new(None), owner: thread::current() };
        let scope = PoolScope {
            pool: Some(ScopeQueue {
                shared: Arc::clone(&self.core.shared),
                latch: Arc::new(latch),
            }),
            _env: std::marker::PhantomData,
        };
        // The guard's Drop waits for every spawned task, so a panic in
        // `f` cannot return borrowed frames to the caller while tasks
        // still reference them.
        let guard = ScopeGuard(&scope);
        let result = f(&scope);
        drop(guard); // waits; task panics surface below
        if let Some(payload) = scope.pool.as_ref().and_then(|queue| queue.latch.take_panic()) {
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
        // A job catches its task's panic, so a worker never dies.
        job.run();
    }
}

/// The spawn half of an active scope (multi-threaded pools only).
struct ScopeQueue {
    shared: Arc<Shared>,
    latch: Arc<Latch>,
}

impl ScopeQueue {
    /// Blocks until the scope's latch handle is the last, running the
    /// scope's own jobs that no worker has taken meanwhile.
    fn wait(&self) {
        while Arc::strong_count(&self.latch) > 1 {
            match self.shared.take_own(&self.latch) {
                Some(job) => job.run(),
                // The rest run on workers, each of which unparks us
                // when it finishes (an unpark that comes first makes
                // this return at once).
                None => thread::park(),
            }
        }
        // Pairs with the release of each job's handle: everything the
        // tasks did happens before the scope returns.
        fence(Ordering::Acquire);
    }
}

/// Waits for the scope's tasks on drop — the soundness anchor for the
/// lifetime erasure (runs on both the normal and unwinding paths).
struct ScopeGuard<'a, 'env>(&'a PoolScope<'env>);

impl Drop for ScopeGuard<'_, '_> {
    fn drop(&mut self) {
        // Any task panic payload stays in the latch; the normal path
        // re-raises it after this drop. On the unwinding path the
        // body's own panic continues and the task payload is dropped
        // with the latch.
        if let Some(queue) = &self.0.pool {
            queue.wait();
        }
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
                let task: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
                // SAFETY: the task may borrow from 'env. The scope guard
                // blocks (normal and unwinding exit alike) until every
                // job has dropped its latch handle, which `Job::run`
                // does only after the task has run and been freed, so
                // the closure never outlives the borrows it captures.
                // Only the lifetime is transmuted; the layout of a boxed
                // trait object does not depend on its lifetime bound.
                let task = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                        task,
                    )
                };
                queue.shared.push(Job { task, latch: Arc::clone(&queue.latch) });
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

    #[test]
    fn a_scope_completes_while_every_worker_is_held_by_another_scopes_job() {
        // Two workers, each held inside a job of a scope opened on a
        // thread of its own; that thread waits in its scope body, so it
        // drains nothing. A second scope then has no free worker and
        // completes on its caller alone.
        let pool = ThreadPool::new(3);
        let (held, release) = (std::sync::Barrier::new(4), std::sync::Barrier::new(3));
        thread::scope(|scope| {
            scope.spawn(|| {
                pool.scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            held.wait();
                            release.wait();
                        });
                    }
                    held.wait();
                })
            });
            held.wait();
            assert_eq!(scoped_sum(&pool, &[1, 2, 3, 4, 5]), 15);
            release.wait();
        });
    }

    #[test]
    fn a_scope_opened_inside_a_job_completes() {
        // Jobs that open scopes of their own on the same pool, more of
        // them than it has workers: each inner scope's caller drains
        // what no worker takes.
        for threads in [2, 3] {
            let pool = ThreadPool::new(threads);
            let totals: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            pool.scope(|s| {
                for (i, total) in totals.iter().enumerate() {
                    let pool = &pool;
                    s.spawn(move || {
                        let items: Vec<u64> = (0..10).map(|x| x * (i as u64 + 1)).collect();
                        total.store(scoped_sum(pool, &items), Ordering::SeqCst);
                    });
                }
            });
            let totals: Vec<u64> = totals.iter().map(|t| t.load(Ordering::SeqCst)).collect();
            assert_eq!(totals, [45, 90, 135, 180], "threads={threads}");
        }
    }
}
