//! The sweep engine's one executor: a block pipeline.
//!
//! `pipeline` runs a range of cells on the calling thread (worker 0)
//! plus up to `threads − 1` scoped helpers. They claim **blocks**,
//! contiguous runs of cells numbered in claim order, from one cursor;
//! each makes and runs its block's cells itself, and a helper hands the
//! block's results back in one message. The calling thread parks early
//! blocks in a reorder buffer and hands every result to a sink in
//! **strictly increasing cell-index order** however the threads
//! interleave, which is what makes every consumer of the engine
//! byte-deterministic across thread counts.
//!
//! A block starting at cell `lo` holds `min(64, ⌈remaining / (4 ×
//! threads)⌉)` cells and never crosses the next shard boundary (a run
//! with no shards is one shard): large blocks while work is plentiful,
//! single cells near the end, so a few heavy items (the learning
//! figures map three) still spread over the threads. The sizes are a
//! pure function of the plan, with no knob.
//!
//! A folding sink is *windowed*: no block is claimed `4 × threads` or
//! more blocks past the first one not yet delivered, so results waiting
//! for the sink stay bounded however long the run. A collecting sink
//! ([`map`], [`Grid::try_run_all`](crate::Grid::try_run_all)) keeps
//! every result anyway and claims with no window.
//!
//! The sink may stop the run by returning [`ControlFlow::Break`] (a
//! cancellation, a failed checkpoint write); helpers stop at their next
//! claim. A panicking cell stops the run too, and re-raises on the
//! calling thread once every helper has stopped.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};

/// Outcome of an executor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStatus {
    /// Jobs whose results were produced and delivered.
    pub completed: usize,
    /// Jobs submitted.
    pub total: usize,
}

impl ExecStatus {
    /// Did every job complete?
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }
}

/// Most cells in one block.
const MAX_BLOCK: usize = 64;

/// Guided claims aim for this many blocks per thread over the cells
/// still unclaimed; a windowed run admits this many blocks per thread
/// past the first undelivered one.
const BLOCKS_PER_THREAD: usize = 4;

/// The cells `start..end` a run covers and how they split into blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    /// First cell to run.
    pub(crate) start: usize,
    /// One past the last cell.
    pub(crate) end: usize,
    /// No block crosses a multiple of this; `end` for an unsharded run.
    pub(crate) shard: usize,
    /// Threads running the plan, the caller included.
    pub(crate) threads: usize,
}

impl Plan {
    /// Cells `0..cells` as one shard, on `threads` threads.
    pub(crate) fn whole(cells: usize, threads: usize) -> Plan {
        Plan { start: 0, end: cells, shard: cells.max(1), threads: threads.max(1) }
    }

    /// The end of the block that starts at cell `lo < end`.
    fn block_end(&self, lo: usize) -> usize {
        let guided = (self.end - lo).div_ceil(BLOCKS_PER_THREAD * self.threads).min(MAX_BLOCK);
        (lo + guided).min((lo / self.shard + 1) * self.shard)
    }
}

/// The claim cursor and the delivery frontier (the first block not yet
/// handed to the sink), under one lock: no block is claimed `window` or
/// more blocks past the frontier.
struct Gate {
    state: Mutex<GateState>,
    moved: Condvar,
    plan: Plan,
    window: usize,
}

#[derive(Default)]
struct GateState {
    /// Blocks claimed, so also the number of the next block.
    claimed: usize,
    /// First cell of the next block.
    cell: usize,
    frontier: usize,
    stopped: bool,
    waiting: usize,
}

impl Gate {
    /// A panic never happens under the lock, so a guard recovered from a
    /// poisoned lock is still consistent.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the next block as `(k, lo, hi)`. `None` once every cell is
    /// claimed or the run stopped, and, unless `wait` holds out for the
    /// frontier to move, when the window does not admit the block.
    fn claim(&self, wait: bool) -> Option<(usize, usize, usize)> {
        let mut s = self.lock();
        loop {
            if s.stopped || s.cell == self.plan.end {
                return None;
            }
            if s.claimed - s.frontier < self.window {
                break;
            }
            if !wait {
                return None;
            }
            s.waiting += 1;
            s = self.moved.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.waiting -= 1;
        }
        let (k, lo) = (s.claimed, s.cell);
        let hi = self.plan.block_end(lo);
        s.claimed += 1;
        s.cell = hi;
        Some((k, lo, hi))
    }

    fn advance(&self, frontier: usize) {
        let mut s = self.lock();
        s.frontier = frontier;
        if s.waiting > 0 {
            self.moved.notify_all();
        }
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.moved.notify_all();
    }
}

/// Stops the gate when dropped: always for the calling thread, which
/// only leaves when the run ends, and for a helper only when it panics,
/// so its peers cannot wait on a frontier that will never move.
struct StopOnDrop<'a> {
    gate: &'a Gate,
    always: bool,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        if self.always || std::thread::panicking() {
            self.gate.stop();
        }
    }
}

/// A reorder buffer: parks blocks that arrive ahead of the next one and
/// hands back the contiguous prefix in increasing block order. The
/// gate's window (or, unwindowed, the cell count) bounds what it holds.
struct Reorder<R> {
    parked: BTreeMap<usize, R>,
    next: usize,
}

impl<R> Reorder<R> {
    /// Take the block numbered `next`, if it has arrived, and move past it.
    fn pop(&mut self) -> Option<R> {
        let block = self.parked.remove(&self.next)?;
        self.next += 1;
        Some(block)
    }
}

/// A helper's block: its number and its results in cell order.
type Done<R> = (usize, Vec<R>);

/// What the calling thread and the helpers share.
struct Work<'a, T, R> {
    gate: Gate,
    make: &'a (dyn Fn(usize, usize) -> Vec<T> + Sync),
    f: &'a (dyn Fn(usize, usize, T) -> R + Sync),
}

impl<T, R> Work<'_, T, R> {
    /// Materialize and run cells `lo..hi` on `worker`.
    fn run(&self, worker: usize, lo: usize, hi: usize) -> Vec<R> {
        (lo..).zip((self.make)(lo, hi)).map(|(index, cell)| (self.f)(worker, index, cell)).collect()
    }

    /// A helper's loop: claim once the window admits, run, hand back.
    fn help(&self, worker: usize, tx: mpsc::SyncSender<Done<R>>) {
        let _stop = StopOnDrop { gate: &self.gate, always: false };
        while let Some((k, lo, hi)) = self.gate.claim(true) {
            // A send fails only once the calling thread has left the run.
            if tx.send((k, self.run(worker, lo, hi))).is_err() {
                break;
            }
        }
    }

    /// The calling thread's loop: deliver whatever blocks are ready,
    /// then claim and run a block itself (delivering each result as it
    /// goes when the block is the next one), or wait for a helper's
    /// block when none may be claimed.
    fn lead<B>(
        &self,
        rx: Option<&mpsc::Receiver<Done<R>>>,
        sink: &mut dyn FnMut(usize, R) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut reorder = Reorder { parked: BTreeMap::new(), next: 0 };
        let mut index = self.gate.plan.start;
        loop {
            while let Some(Ok((k, results))) = rx.map(mpsc::Receiver::try_recv) {
                reorder.parked.insert(k, results);
            }
            while let Some(results) = reorder.pop() {
                for result in results {
                    sink(index, result)?;
                    index += 1;
                }
                self.gate.advance(reorder.next);
            }
            if let Some((k, lo, hi)) = self.gate.claim(false) {
                if k == reorder.next {
                    for (i, cell) in (lo..).zip((self.make)(lo, hi)) {
                        sink(i, (self.f)(0, i, cell))?;
                    }
                    index = hi;
                    reorder.next += 1;
                    self.gate.advance(reorder.next);
                } else {
                    reorder.parked.insert(k, self.run(0, lo, hi));
                }
                continue;
            }
            // Every cell is claimed, or the next block is a helper's:
            // wait for any helper's block. An error means every helper
            // has left, so every block it claimed has been received.
            match rx.map(mpsc::Receiver::recv) {
                Some(Ok((k, results))) => {
                    reorder.parked.insert(k, results);
                }
                _ => return ControlFlow::Continue(()),
            }
        }
    }
}

/// Run cells `plan.start..plan.end` on the calling thread plus
/// `min(threads, cells) − 1` scoped helpers numbered from 1, handing
/// each `(index, result)` to `sink` on the calling thread in strictly
/// increasing index order.
///
/// `make(lo, hi)` materializes cells `lo..hi`, and `f(worker, index,
/// cell)` runs one; both run on the thread that claimed the block. The
/// worker id exists for scheduling diagnostics and tests; results must
/// not depend on it. `windowed` bounds the results waiting for the sink
/// (see the module docs). The run stops early, returning the sink's
/// `Break`, when the sink breaks; a panicking cell re-raises here once
/// every helper has stopped.
pub(crate) fn pipeline<T, R, B>(
    plan: Plan,
    windowed: bool,
    make: impl Fn(usize, usize) -> Vec<T> + Sync,
    f: impl Fn(usize, usize, T) -> R + Sync,
    sink: &mut dyn FnMut(usize, R) -> ControlFlow<B>,
) -> ControlFlow<B>
where
    R: Send,
{
    let cells = plan.end - plan.start;
    let window = if windowed { BLOCKS_PER_THREAD * plan.threads } else { usize::MAX };
    let gate = Gate {
        state: Mutex::new(GateState { cell: plan.start, ..GateState::default() }),
        moved: Condvar::new(),
        plan,
        window,
    };
    let work = &Work { gate, make: &make, f: &f };
    // Every block is at least one cell, and the first `threads` claims
    // are single cells whenever there are fewer cells than that.
    let helpers = plan.threads.min(cells).saturating_sub(1);
    std::thread::scope(|scope| {
        let rx = (helpers > 0).then(|| {
            // Every unread block lies inside the window, and there are
            // at most `cells` blocks, so a send never blocks: a helper
            // waits only at the gate, never on the calling thread running
            // a cell or syncing a checkpoint.
            let (tx, rx) = mpsc::sync_channel(window.min(cells));
            for worker in 1..=helpers {
                let tx = tx.clone();
                scope.spawn(move || work.help(worker, tx));
            }
            rx
        });
        let _stop = StopOnDrop { gate: &work.gate, always: true };
        work.lead(rx.as_ref(), sink)
    })
}

/// Run `f` over `items` on `threads` workers and collect the results in
/// index order: the block pipeline with no window and a collecting sink.
///
/// `f` is invoked as `f(worker, index, item)`. The calling thread is
/// worker 0 and runs items itself; it spawns `min(threads, items.len())
/// − 1` scoped helpers numbered from 1, so with one thread or one item
/// every item runs on the caller. A panicking item re-raises here.
pub fn map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let n = items.len();
    let plan = Plan::whole(n, threads);
    // Each block takes its items out by index, so claim order is free.
    let slots = Mutex::new(items.into_iter().map(Some).collect::<Vec<_>>());
    let take = |lo: usize, hi: usize| -> Vec<T> {
        let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
        // clamshell-lint: allow(D006) -- the pipeline claims each block once, so its slots are full
        slots[lo..hi].iter_mut().map(|s| s.take().expect("each block is claimed once")).collect()
    };
    let mut out = Vec::with_capacity(n);
    let ControlFlow::Continue(()) = pipeline(plan, false, take, f, &mut |index, result| {
        debug_assert_eq!(index, out.len());
        out.push(result);
        ControlFlow::<Infallible>::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// [`pipeline`] over `items` with no window and no shards, delivering
    /// to `sink`: the executor under [`map`], with the sink exposed.
    fn run_items<T: Clone + Send + Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(usize, usize, T) -> R + Sync,
        sink: &mut dyn FnMut(usize, R),
    ) {
        let plan = Plan::whole(items.len(), threads);
        let take = |lo: usize, hi: usize| items[lo..hi].to_vec();
        let ControlFlow::Continue(()) = pipeline(plan, false, take, f, &mut |i, r| {
            sink(i, r);
            ControlFlow::<Infallible>::Continue(())
        });
    }

    #[test]
    fn results_arrive_in_index_order() {
        // Reverse the natural completion order: early indices sleep
        // longest, so without the reorder buffer the sink would see
        // descending indices first.
        for threads in 1..=4 {
            let items: Vec<u64> = (0..12).map(|i| (12 - i) * 3).collect();
            let mut seen = Vec::new();
            run_items(
                &items,
                threads,
                |_, idx, ms| {
                    std::thread::sleep(Duration::from_millis(ms));
                    idx * 10
                },
                &mut |i, r| seen.push((i, r)),
            );
            assert_eq!(seen, (0..12).map(|i| (i, i * 10)).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn a_stuck_cell_does_not_block_the_other_claims() {
        // Cell 0 cannot finish until every cell outside its own block has
        // run, so the sweep completes only if the other threads claim
        // past that block. (Cells after 0 in the same block wait behind
        // it on the same thread.) The deadline turns a hang into a
        // failure; the success path never sleeps.
        let n = 16usize;
        for threads in [2, 4] {
            let plan = Plan::whole(n, threads);
            let first_block = plan.block_end(0);
            assert!(first_block < n, "{threads} threads: one block holds every cell");
            let others_done = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut seen = Vec::new();
            run_items(
                &(0..n).collect::<Vec<_>>(),
                threads,
                |_, idx, job: usize| {
                    if idx == 0 {
                        while others_done.load(Ordering::Acquire) < n - first_block {
                            assert!(Instant::now() < deadline, "peers never claimed past block 0");
                            std::thread::yield_now();
                        }
                    } else if idx >= first_block {
                        others_done.fetch_add(1, Ordering::Release);
                    }
                    job * 2
                },
                &mut |i, r| seen.push((i, r)),
            );
            assert_eq!(seen, (0..n).map(|j| (j, j * 2)).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn a_few_heavy_items_run_one_per_thread() {
        // The learning figures map three heavy items at two threads. Item
        // 0 finishes only once item 1 has started, which holds only if
        // they sit in different blocks and so run at once.
        let started = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        let out = map(vec![0usize, 1, 2], 2, |_, _, item| {
            if item == 0 {
                while started.load(Ordering::Acquire) == 0 {
                    assert!(Instant::now() < deadline, "item 1 never ran beside item 0");
                    std::thread::yield_now();
                }
            } else if item == 1 {
                started.store(1, Ordering::Release);
            }
            item * 3
        });
        assert_eq!(out, vec![0, 3, 6]);
    }

    #[test]
    fn one_worker_runs_every_cell_on_the_caller() {
        let caller = std::thread::current().id();
        for (threads, n) in [(1, 8), (4, 1)] {
            let mut seen = 0usize;
            run_items(
                &(0..n).collect::<Vec<usize>>(),
                threads,
                |worker, _, job| {
                    assert_eq!(worker, 0, "threads={threads} n={n}");
                    assert_eq!(std::thread::current().id(), caller, "threads={threads} n={n}");
                    job
                },
                &mut |_, _| seen += 1,
            );
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn a_panicking_cell_propagates_at_every_width() {
        // Whether the caller or a helper runs the bad cell, the panic
        // reaches the caller instead of a partial result.
        let n = 8usize;
        for bad in [0, n - 1] {
            for threads in [1, 2, 4] {
                let run = std::panic::catch_unwind(|| {
                    map((0..n).collect::<Vec<usize>>(), threads, |_, _, job| {
                        assert_ne!(job, bad, "bad cell");
                        job
                    })
                });
                assert!(run.is_err(), "bad cell {bad} at {threads} threads");
            }
        }
    }

    #[test]
    fn map_handles_more_threads_than_jobs() {
        let out = map(vec![1u32, 2, 3], 16, |_, _, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn map_handles_empty_job_list() {
        let out: Vec<u32> = map(Vec::<u32>::new(), 4, |_, _, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn blocks_tile_each_shard_without_crossing_it() {
        for (start, end, shard) in [
            (0, 6, 2),
            (0, 6, 4),
            (4, 6, 4),
            (0, 1000, 100),
            (200, 1000, 100),
            (0, 70_000, 16_384),
            (0, 3, 3),
        ] {
            for threads in [1, 2, 4] {
                let plan = Plan { start, end, shard, threads };
                let mut cell = start;
                while cell < end {
                    let hi = plan.block_end(cell);
                    assert!(cell < hi && hi - cell <= MAX_BLOCK, "{plan:?}: {cell}..{hi}");
                    assert_eq!(cell / shard, (hi - 1) / shard, "{plan:?}: {cell}..{hi}");
                    cell = hi;
                }
                assert_eq!(cell, end, "{plan:?}");
            }
        }
        // The default megasweep shard runs whole 32-cell blocks while
        // work is plentiful, and a few items run one per block.
        let mega = Plan { start: 0, end: 100_000, shard: 32, threads: 2 };
        assert_eq!(mega.block_end(0), 32);
        let few = Plan::whole(3, 2);
        assert_eq!((few.block_end(0), few.block_end(1)), (1, 2));
    }

    #[test]
    fn a_breaking_sink_stops_the_run() {
        // The sink stops after index 9; nothing past it is delivered, and
        // the Break reaches the caller.
        for threads in [1, 2, 4] {
            let items: Vec<usize> = (0..200).collect();
            let plan = Plan::whole(items.len(), threads);
            let mut seen = Vec::new();
            let flow =
                pipeline(plan, true, |lo, hi| items[lo..hi].to_vec(), |_, _, x| x, &mut |i, r| {
                    seen.push(r);
                    if i == 9 {
                        ControlFlow::Break(i)
                    } else {
                        ControlFlow::Continue(())
                    }
                });
            assert_eq!(flow, ControlFlow::Break(9), "{threads} threads");
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "{threads} threads");
        }
    }
}
