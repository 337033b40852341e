//! Scratch-reuse regression: repeated `infer` calls on the physical
//! layout must not grow the heap.
//!
//! The request loop pools its [`LayerScratch`] arenas, the
//! schedule-order feature buffer and the ping-pong activation matrices,
//! and a fleet pools one such set per shard besides, so after the first
//! (warm-up) requests every later request reuses steady-state buffers:
//! live heap bytes return to the pre-call level and the bytes allocated
//! per call are constant — no per-layer heap growth — for an engine and
//! for a 2-shard fleet alike.
//!
//! The test instruments the global allocator, which is why it lives in
//! its own integration-test binary with a single `#[test]` (no
//! concurrent tests polluting the counters). It counts every thread but
//! the harness's main thread: that thread's own bookkeeping for the
//! test it has just started runs beside the test's first calls, when
//! the scheduler lets it, and is no allocation of the engine's.
//!
//! [`LayerScratch`]: igcn::core::LayerScratch

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::Arc;

use igcn::core::accel::{Accelerator, InferenceRequest, InferenceResponse};
use igcn::core::{ExecConfig, IGcnEngine};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::SparseFeatures;
use igcn::shard::ShardedEngine;

/// Counts cumulative allocated bytes and live (outstanding) bytes.
struct CountingAllocator;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Set by the process's first allocation, which the harness's main
/// thread makes before it starts any other.
static FIRST_SEEN: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread made the process's first allocation.
    static HARNESS_MAIN: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread's allocations are counted: every thread's
/// but the harness's main thread.
fn counted() -> bool {
    HARNESS_MAIN.with(|main| {
        if !FIRST_SEEN.load(Ordering::SeqCst) && !FIRST_SEEN.swap(true, Ordering::SeqCst) {
            main.set(true);
        }
        !main.get()
    })
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System` and returns what that returns, so `GlobalAlloc`'s
// contract holds because `System` keeps it; the counters are atomics
// and the flag a constant-initialised thread-local with no destructor,
// none of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::SeqCst);
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const N: usize = 400;

/// Runs `infer` twice to warm up, then five times more: after every one
/// of those, live bytes must be back at their level before the five (zero
/// heap growth), and the bytes allocated per call must be constant call
/// over call (no per-layer accumulation). Returns the bytes of the first,
/// cold call and of a steady-state call.
fn assert_steady_state(what: &str, infer: impl Fn() -> InferenceResponse) -> (u64, u64) {
    // First call: arenas and pools grow to their steady-state size.
    let first_start = ALLOCATED_BYTES.load(Ordering::SeqCst);
    drop(infer());
    let first_call_bytes = ALLOCATED_BYTES.load(Ordering::SeqCst) - first_start;
    // One more warm-up: lets every lazily-grown buffer reach its final
    // capacity before measurement.
    drop(infer());

    // (Preallocated so the measurement loop's own bookkeeping never
    // allocates inside the measured window.)
    let mut per_call = Vec::with_capacity(8);
    let live_before = LIVE_BYTES.load(Ordering::SeqCst);
    for i in 0..5 {
        let start = ALLOCATED_BYTES.load(Ordering::SeqCst);
        let response = infer();
        assert_eq!(response.output.rows(), N);
        drop(response);
        per_call.push(ALLOCATED_BYTES.load(Ordering::SeqCst) - start);
        assert_eq!(
            LIVE_BYTES.load(Ordering::SeqCst),
            live_before,
            "{what} call {i}: live heap bytes grew across infer calls"
        );
    }
    assert!(
        per_call.windows(2).all(|w| w[0] == w[1]),
        "{what}: per-call allocation must be constant at steady state, got {per_call:?}"
    );
    (first_call_bytes, per_call[0])
}

#[test]
fn repeated_infer_calls_do_not_grow_the_heap() {
    const FEATURE_DIM: usize = 16;
    let g = HubIslandConfig::new(N, 16).noise_fraction(0.02).generate(23);
    let graph = Arc::new(g.graph);
    const CLASSES: usize = 4;
    let model = GnnModel::gcn(FEATURE_DIM, 8, CLASSES);
    let weights = ModelWeights::glorot(&model, 3);
    let mut engine = IGcnEngine::builder(Arc::clone(&graph)).build().expect("loop-free graph");
    engine.prepare(&model, &weights).expect("weights match");
    let request = InferenceRequest::new(SparseFeatures::random(N, FEATURE_DIM, 0.3, 5));

    let (first_call_bytes, steady) =
        assert_steady_state("engine", || engine.infer(&request).expect("prepared engine"));
    // The steady-state per-call allocation must be well below the cold
    // first call, which paid for the arenas and the plan.
    assert!(
        steady < first_call_bytes,
        "steady-state calls ({steady} B) should allocate less than the cold call \
         ({first_call_bytes} B)"
    );
    // And it is the response alone: the output payload plus the report's
    // few small vectors (7 045 B here). The walk itself allocates
    // nothing — when the compute path still carried the ring model, its
    // per-wave maps made this 605 317 B.
    let payload = (N * CLASSES * std::mem::size_of::<f32>()) as u64;
    assert!(
        steady <= payload + 1024,
        "a steady-state infer allocated {steady} B for a {payload} B output"
    );

    // A 2-shard fleet runs the same request loop with one pooled state
    // set per shard: after warm-up it allocates its response alone too.
    let fleet = ShardedEngine::from_engine(&engine, 2).expect("fleet partitions");
    let (_, fleet_steady) =
        assert_steady_state("2-shard fleet", || fleet.infer(&request).expect("prepared fleet"));
    assert!(
        fleet_steady <= payload + 1024,
        "a steady-state fleet infer allocated {fleet_steady} B for a {payload} B output"
    );

    // The multi-thread island path: workers write island rows straight
    // into the shared output slab and hub contributions into the pooled
    // slab, so repeated parallel infers must not grow the live heap
    // either. (Per-call *totals* are not compared here — dynamic island
    // claiming makes the number of worker arenas grown per call
    // schedule-dependent — but every transient buffer must be returned:
    // live bytes pin steady state.)
    engine.set_exec_config(ExecConfig::default().with_threads(2));
    // Warm-up: the helper pool (created by the first fan-out, which
    // returns once its workers run), pooled arenas, slab growth.
    drop(engine.infer(&request).expect("prepared engine"));
    drop(engine.infer(&request).expect("prepared engine"));
    let live_before_parallel = LIVE_BYTES.load(Ordering::SeqCst);
    for i in 0..5 {
        let response = engine.infer(&request).expect("prepared engine");
        assert_eq!(response.output.rows(), N);
        drop(response);
        assert_eq!(
            LIVE_BYTES.load(Ordering::SeqCst),
            live_before_parallel,
            "parallel call {i}: live heap bytes grew across infer calls"
        );
    }
}
