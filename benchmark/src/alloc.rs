//! A counting global allocator: live heap bytes per thread, so the heap
//! a single-threaded build retains can be read as a delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated minus bytes freed *by this thread*. A plain
    /// `Cell` with a const initialiser has no destructor and never
    /// allocates, so it is safe to touch from inside the allocator.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(delta: isize) {
    // `try_with`: a thread being torn down may free after its
    // thread-locals are gone; those bytes are simply not counted.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// The system allocator plus the per-thread live-byte count.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Live heap bytes attributable to the calling thread. Only differences
/// between two readings on the same thread mean anything.
pub fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_counts_what_is_retained_and_returns_to_zero() {
        let before = live_bytes();
        let kept: Vec<u8> = Vec::with_capacity(1 << 20);
        // A temporary that is freed before the reading must not show.
        drop(std::hint::black_box(vec![0u8; 4 << 20]));
        assert_eq!(live_bytes() - before, 1 << 20);
        let mut grown = kept;
        grown.reserve_exact(3 << 20); // realloc path
        assert_eq!(live_bytes() - before, 3 << 20);
        drop(grown);
        assert_eq!(live_bytes() - before, 0);
    }
}
