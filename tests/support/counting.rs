//! The counting `#[global_allocator]` of the allocation batteries
//! (`served_allocations`, `trainer_allocations`, `exact_allocations`,
//! `front_door_allocations`). Each includes this file by path, so each is
//! its own test binary; the count is per thread, so the harness running
//! tests side by side does not disturb it.

// Unsafe by design: a `GlobalAlloc` impl that forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls that hand out memory (`alloc`, `alloc_zeroed`,
    /// `realloc`) made by this thread. `const` and without a destructor,
    /// so reading it from inside the allocator allocates nothing.
    static ACQUISITIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

fn count() {
    // A thread being torn down may allocate after its locals are gone;
    // those calls are nobody's to count.
    let _ = ACQUISITIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's; counting touches only a
// `const`-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` meets `alloc`'s contract, the caller's obligation.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, which is `System` underneath,
    // with this `layout` — the caller's obligation, passed on unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` are as the caller guarantees them.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as `realloc`; releasing memory is not counted.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return what it returned with the allocator calls it made.
/// The result is handed back so that dropping it is the caller's business.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ACQUISITIONS.with(Cell::get);
    let out = f();
    (out, ACQUISITIONS.with(Cell::get) - before)
}
