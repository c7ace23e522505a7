//! A counting global allocator for the bounded-memory tests: it tracks
//! live heap bytes and their peak, so a test can bound how much a
//! workload's live set grows.
//!
//! Each test binary that measures memory includes this file and owns the
//! process-global allocator:
//!
//! ```ignore
//! #[path = "../../../tests/support/live_alloc.rs"]
//! mod live_alloc;
//!
//! #[global_allocator]
//! static GLOBAL: live_alloc::LiveAlloc = live_alloc::LiveAlloc;
//! ```
//!
//! The counters are process-global and relaxed, so a measurement is
//! exact only while nothing else allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards every call to [`System`], counting live bytes and their peak.
pub struct LiveAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: a thin pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's layout/provenance
// contract is upheld verbatim; the counters are side-effect-only.
unsafe impl GlobalAlloc for LiveAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    // SAFETY: delegates to System.dealloc with the caller's ptr/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract for `ptr`/`layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    // SAFETY: delegates to System.realloc with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller upholds GlobalAlloc's contract for the arguments.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Run `f` and return the peak live-byte *growth* it caused over the
/// live bytes at entry.
pub fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}
