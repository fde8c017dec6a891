//! A counting global allocator: std only, installed in this binary alone.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` bumps a per-thread counter,
//! so a span can read the exact number of heap allocations made on its
//! own thread between its start and its end, however many worker threads
//! allocate at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter.
pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator can never allocate or recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Heap allocations made on the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain thread-local integer that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}
