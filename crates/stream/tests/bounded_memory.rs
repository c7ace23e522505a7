//! Bounded-memory conformance: a retire-mode stream's peak live heap
//! must not grow with stream length.
//!
//! The whole point of `StreamConfig { retire: true }` is that a service
//! can label an unbounded stream in constant memory: completed-task
//! state retires at every batch boundary, so live heap is bounded by the
//! largest single batch plus fixed engine state — not by the number of
//! tasks ever labeled. Checkpoints count too: the engine hands each one
//! to the caller's sink and keeps only the latest. This test pins that
//! down with a counting global allocator: a 100×-longer stream (1k →
//! 100k tasks) may increase peak live bytes only by a small constant
//! factor (fixed-size tables, allocator noise), not by anything close
//! to 100×. It runs three times: with a sparse checkpoint cadence, with a
//! checkpoint at every batch boundary as `repro serve` emits them, and
//! at that cadence under churn, where walkouts replace workers all run
//! long and a departed worker's state must go with them.
//!
//! The test binary owns the process-global allocator, so it lives alone
//! in this integration-test file. Each workload is single-threaded and
//! the cases take turns on one lock, so relaxed counters are exact.

use clamshell_core::{AdversityConfig, ChurnFault, RunConfig};
use clamshell_stream::source;
use clamshell_stream::{run_stream, StreamConfig};
use clamshell_trace::Population;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct LiveAlloc;

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

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

/// Serializes the cases: the counters are process-global, and the test
/// harness runs cases on parallel threads. A case holds the guard until
/// it ends, so a failing case's panic report allocates under it too.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` and return the peak live-byte *growth* it caused over the
/// live bytes at entry.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// A lean service cell: single-record tasks, quorum 1, no straggler
/// replication — the per-task work floor, so stream-length scaling
/// dominates the measurement instead of per-task simulation cost.
/// Batches hold 50 tasks, so a `checkpoint_every` of at most 50 emits a
/// checkpoint at every batch boundary. Returns the peak live-byte growth
/// and the number of workers the stream recruited.
fn lean_stream(
    n_tasks: usize,
    checkpoint_every: usize,
    adversity: Option<AdversityConfig>,
) -> (u64, usize) {
    let mut cfg =
        RunConfig { pool_size: 4, ng: 1, n_classes: 2, quorum: 1, seed: 1, ..Default::default() };
    cfg.adversity = adversity;
    let stream = StreamConfig { rate_per_sec: 5.0, checkpoint_every, retire: true };
    let (outcome, peak) = peak_growth(|| {
        run_stream(cfg, Population::mturk_live(), source::alternating(1), n_tasks, 50, &stream)
    });
    assert_eq!(outcome.checkpoints.last().completed, n_tasks as u64);
    assert!(outcome.report.tasks.is_empty(), "retire mode keeps no rows");
    (peak, outcome.report.workers_recruited)
}

/// `(peak live-byte growth, workers recruited)` of a 1k- and a 100k-task
/// stream at one checkpoint cadence, after a warm-up run.
fn peaks_1k_100k(
    checkpoint_every: usize,
    adversity: Option<AdversityConfig>,
) -> ((u64, usize), (u64, usize)) {
    // Warm-up: fault the lazy population tables and allocator arenas so
    // neither run pays first-touch costs into its peak.
    let _ = lean_stream(200, checkpoint_every, adversity);
    (
        lean_stream(1_000, checkpoint_every, adversity),
        lean_stream(100_000, checkpoint_every, adversity),
    )
}

#[test]
fn retire_mode_peak_memory_is_stream_length_invariant() {
    let _serial = serial();
    let ((peak_1k, _), (peak_100k, _)) = peaks_1k_100k(10_000, None);
    eprintln!("peak live bytes: 1k tasks = {peak_1k}, 100k tasks = {peak_100k}");

    // 100× the stream, at most a small constant factor of the peak: the
    // live set is one batch of state plus fixed tables. (A retained run
    // would grow its report vectors ~100×.)
    assert!(peak_1k > 0, "the counting allocator must observe the run");
    assert!(
        peak_100k <= peak_1k * 4,
        "retire-mode peak grew with stream length: 1k={peak_1k}B, 100k={peak_100k}B"
    );
}

#[test]
fn peak_memory_is_stream_length_invariant_with_a_checkpoint_every_batch() {
    // `repro serve`'s cadence: every batch boundary emits a checkpoint,
    // so the 100k stream emits 2,000 of them against the 1k stream's 20.
    // Keeping them all would grow the peak by their count.
    let _serial = serial();
    let ((peak_1k, _), (peak_100k, _)) = peaks_1k_100k(1, None);
    eprintln!("peak live bytes, checkpoint every batch: 1k = {peak_1k}, 100k = {peak_100k}");
    assert!(peak_1k > 0, "the counting allocator must observe the run");
    assert!(
        peak_100k <= peak_1k * 4,
        "peak grew with stream length at a per-batch cadence: 1k={peak_1k}B, 100k={peak_100k}B"
    );
}

#[test]
fn peak_memory_is_stream_length_invariant_under_churn() {
    // Walkouts end assignments all run long, and every walkout recruits
    // a replacement who never meets the departed worker again. Nothing
    // may keep a record per worker ever recruited: the live crowd is the
    // pool plus the reserve, whatever the stream length.
    let _serial = serial();
    let churn = AdversityConfig { churn: Some(ChurnFault::default()), ..AdversityConfig::NONE };
    let ((peak_1k, recruited_1k), (peak_100k, recruited_100k)) = peaks_1k_100k(1, Some(churn));
    eprintln!(
        "peak live bytes under churn: 1k = {peak_1k} ({recruited_1k} recruited), \
         100k = {peak_100k} ({recruited_100k} recruited)"
    );
    assert!(
        recruited_100k >= recruited_1k * 10,
        "the churn case must keep recruiting: 1k={recruited_1k}, 100k={recruited_100k}"
    );
    assert!(peak_1k > 0, "the counting allocator must observe the run");
    assert!(
        peak_100k <= peak_1k * 4,
        "peak grew with stream length under churn: 1k={peak_1k}B, 100k={peak_100k}B"
    );
}
