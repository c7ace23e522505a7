//! Bounded-memory conformance for folding sweeps: peak live heap tracks
//! the shard (and the pipeline's window of in-flight blocks), not the
//! grid.
//!
//! `run_sharded` and `Grid::run_streaming` materialize cells one block
//! at a time and fold every report into one aggregator, so a sweep over
//! 10× the cells may raise peak live bytes only by a small constant
//! factor (allocator noise, the manifest line), not by anything close to
//! 10×. Likewise a shard 64× larger must not buffer a shard's worth of
//! reports: blocks never exceed a fixed cell count, whatever the shard
//! size.
//!
//! The fold pauses every 32 cells, so the helper thread runs ahead of
//! it and only the pipeline's window keeps finished reports from piling
//! up. The pause can only make buffering worse, so a correct bound
//! passes whatever the timing.
//!
//! The test binary owns the process-global allocator, so it lives alone
//! in this integration-test file and runs its cases from a single test.
//! The grid and aggregator are built before each measurement, so only
//! the sweep itself is counted.

use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sweep::shard::{run_sharded, ShardOptions};
use clamshell_sweep::{CancelToken, Grid, Metric, MetricsAggregator};
use clamshell_trace::Population;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ThreadId;
use std::time::Duration;

#[path = "../../../tests/support/live_alloc.rs"]
mod live_alloc;

use live_alloc::{peak_growth, LiveAlloc};

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

/// Set once a helper thread has stalled on its first block.
static STALLED: AtomicBool = AtomicBool::new(false);

/// The megasweep cell shape (straggler mitigation on/off, pool 4, Ng 2,
/// 4 tasks in one batch) over `cells / 2` seeds. With `stall`, the
/// first block a thread other than `caller` materializes takes 300 ms.
fn grid(cells: usize, stall: bool, caller: ThreadId) -> Grid {
    let specs: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
    let seeds: Vec<u64> = (1..=(cells / 2) as u64).collect();
    STALLED.store(false, Ordering::Relaxed);
    Grid::new(
        RunConfig { pool_size: 4, ng: 2, ..Default::default() },
        Population::mturk_live(),
        specs,
        4,
    )
    .seeds(&seeds)
    .scenario("sm", move |c| {
        if stall && std::thread::current().id() != caller && !STALLED.swap(true, Ordering::Relaxed)
        {
            std::thread::sleep(Duration::from_millis(300));
        }
        c.straggler = Some(Default::default())
    })
    .scenario("nosm", |c| c.straggler = None)
}

/// Peak live-byte growth of a complete sharded sweep over `cells` cells
/// at `shard_size` on `threads` threads.
fn sweep_peak(cells: usize, shard_size: usize, threads: usize, stall: bool) -> u64 {
    let g = grid(cells, stall, std::thread::current().id());
    let mut agg = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
    let path = std::env::temp_dir()
        .join(format!("clamshell_shard_memory_{cells}_{shard_size}_{threads}.jsonl"));
    let opts =
        ShardOptions { shard_size, manifest: path.clone(), resume: false, threads: Some(threads) };
    // Pause the fold every 32 cells, so the helpers outrun the calling
    // thread: the worst case for reports waiting to be folded.
    let mut pause = |done: usize, _| {
        if done.is_multiple_of(32) {
            std::thread::sleep(Duration::from_millis(4));
        }
    };
    let (out, peak) = peak_growth(|| {
        run_sharded(&g, &mut agg, &opts, &CancelToken::new(), Some(&mut pause)).unwrap()
    });
    assert!(out.is_complete(), "{cells} cells at shard size {shard_size}: {out:?}");
    let _ = std::fs::remove_file(&path);
    peak
}

/// Peak live-byte growth of `Grid::run_streaming` over `cells` cells on
/// `threads` threads.
fn streaming_peak(cells: usize, threads: usize) -> u64 {
    let g = grid(cells, false, std::thread::current().id());
    let mut agg = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
    let (status, peak) = peak_growth(|| g.run_streaming(Some(threads), &mut agg));
    assert!(status.is_complete(), "{cells} cells at {threads} threads: {status:?}");
    peak
}

#[test]
fn sharded_peak_memory_tracks_the_block_not_the_grid() {
    // Warm-up: fault the lazy population tables and allocator arenas so
    // no measured run pays first-touch costs into its peak.
    let _ = sweep_peak(64, 32, 3, false);

    let small = sweep_peak(640, 32, 2, false);
    let large = sweep_peak(6_400, 32, 2, false);
    eprintln!("peak live bytes at shard size 32: 640 cells = {small}, 6400 cells = {large}");
    assert!(small > 0, "the counting allocator must observe the sweep");
    assert!(large <= small * 4, "peak grew with the grid: 640 cells={small}B, 6400 cells={large}B");

    // One 2048-cell shard versus 64 shards of 32 over the same grid: the
    // big shard is still run and folded a bounded block at a time.
    let big_shard = sweep_peak(2_048, 2_048, 2, false);
    let small_shards = sweep_peak(2_048, 32, 2, false);
    eprintln!(
        "peak live bytes over 2048 cells: shard 2048 = {big_shard}, shard 32 = {small_shards}"
    );
    assert!(
        big_shard <= small_shards * 4,
        "peak grew with the shard: shard 2048={big_shard}B, shard 32={small_shards}B"
    );

    // At 3 threads a stalled helper holds the fold frontier back while
    // the other helper runs on; the window, not the grid, bounds what
    // piles up behind the frontier.
    let steady = sweep_peak(640, 32, 3, false);
    let stalled = sweep_peak(6_400, 32, 3, true);
    eprintln!("peak live bytes at 3 threads: 640 cells = {steady}, 6400 with a stall = {stalled}");
    assert!(
        stalled <= steady * 4,
        "peak grew behind a stalled helper: 640 cells={steady}B, 6400 cells={stalled}B"
    );

    // The unsharded fold runs on the same windowed pipeline, so it too
    // holds blocks, not the grid's cells.
    for threads in [1, 2] {
        let small = streaming_peak(640, threads);
        let large = streaming_peak(6_400, threads);
        eprintln!(
            "run_streaming peak live bytes at {threads} threads: 640 = {small}, 6400 = {large}"
        );
        assert!(
            large <= small * 4,
            "run_streaming peak grew with the grid at {threads} threads: \
             640 cells={small}B, 6400 cells={large}B"
        );
    }
}
