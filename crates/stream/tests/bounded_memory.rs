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
use std::sync::{Mutex, MutexGuard};

#[path = "../../../tests/support/live_alloc.rs"]
mod live_alloc;

use live_alloc::{peak_growth, LiveAlloc};

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

/// Serializes the cases: the counters are process-global, and the test
/// harness runs cases on parallel threads. A case holds the guard until
/// it ends, so a failing case's panic report allocates under it too.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
