//! A counting global allocator: `core.alloc_per_seg` is the number of
//! heap allocations the bridge makes per segment in steady state, and
//! it is exact. The counter is a const-initialised thread-local `Cell`
//! (no atomics, no lazy initialisation), so it costs about a nanosecond
//! an allocation and is on in every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: defers every operation to `System`; the counter is a
// thread-local `Cell<u64>` with const initialisation and no destructor,
// so touching it from inside the allocator can neither allocate nor
// run after the slot is torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by this thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}
