//! A counting global allocator for the traced run.
//!
//! Every thread carries its own allocation count and byte total, bumped
//! only while that thread's counting flag is on. The traced run turns the
//! flag on for the duration of a traced op, so the counts a span reads
//! are the allocations its own thread made; untraced ops and the daemon's
//! worker threads pay one thread-local read per allocation and are never
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator with per-thread counters.
pub struct Counting;

#[derive(Clone, Copy)]
struct Counters {
    on: bool,
    allocs: u64,
    bytes: u64,
}

thread_local! {
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { on: false, allocs: 0, bytes: 0 })
    };
}

#[inline]
fn note(bytes: usize) {
    // `try_with`: allocations made while the thread tears down its
    // locals must not panic inside the allocator.
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        if v.on {
            v.allocs += 1;
            v.bytes += bytes as u64;
            c.set(v);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches a `Cell` in a const-initialized thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        v.on = on;
        c.set(v);
    });
}

/// The calling thread's `(allocations, bytes)` counted so far.
pub fn counted() -> (u64, u64) {
    let v = COUNTERS.with(Cell::get);
    (v.allocs, v.bytes)
}
