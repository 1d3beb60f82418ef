//! A counting global allocator. Counting is off unless a traced run turns
//! it on, so untraced runs pay one relaxed load per allocation.
//!
//! Two views are kept: a per-thread count (to attribute allocations to the
//! stage a worker thread is running) and a process-wide count spread over
//! padded per-thread cells (to count everything an engine call allocates,
//! including on the threads it spawns, without contending on one line).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The allocator: forwards to [`System`] and counts `alloc`,
/// `alloc_zeroed` and `realloc` calls while counting is enabled.
pub struct CountingAlloc;

const CELLS: usize = 64;

#[repr(align(128))]
struct Cell128(AtomicU64);

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Cell128 = Cell128(AtomicU64::new(0));
static GLOBAL: [Cell128; CELLS] = [ZERO; CELLS];

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
    static MY_CELL: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn record() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` fails only during thread teardown; such allocations are
    // not part of any measured region.
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
    let _ = MY_CELL.try_with(|c| {
        if c.get() == usize::MAX {
            c.set(NEXT_CELL.fetch_add(1, Ordering::Relaxed) % CELLS);
        }
        GLOBAL[c.get()].0.fetch_add(1, Ordering::Relaxed);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// atomics and const-initialised thread locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far on the calling thread.
pub fn thread_count() -> u64 {
    LOCAL.with(Cell::get)
}

/// Allocations counted so far on every thread of the process.
pub fn process_count() -> u64 {
    GLOBAL.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
}
