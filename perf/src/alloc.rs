//! The counting allocator of the `layers` binary.
//!
//! Only `layers` installs it as its `#[global_allocator]`, so the `perf`
//! binary's end-to-end numbers carry no allocator overhead. It counts
//! only inside [`count`]; elsewhere an allocation costs one extra relaxed
//! load, which keeps the traced children's overhead negligible.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A pass-through to [`System`] that counts allocation calls and bytes
/// while [`count`] runs.
pub struct CountingAlloc;

// Statistics only: the flag and counters publish no other data, so
// `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// System's layout and provenance contract is upheld verbatim; the
// counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's arguments, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return its result with the allocation calls and bytes made
/// meanwhile (zero unless [`CountingAlloc`] is the global allocator). The
/// counters are process-wide, so `f` must be the only code allocating:
/// callers use it on serial sections only, never nested.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let calls = CALLS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, CALLS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes)
}
