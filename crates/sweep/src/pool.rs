//! The generic scatter/gather executor.
//!
//! [`execute_streaming`] is the engine's heart. The calling thread is
//! worker 0: it and up to `threads − 1` scoped helpers claim the next
//! `(index, item)` from one shared cursor, so claims go out in index
//! order. Helpers send `(index, result)` pairs back over a channel;
//! between its own cells the caller drains that channel into a reorder
//! buffer and hands the contiguous prefix to the sink. The sink
//! therefore observes results in **strictly increasing job-index
//! order** no matter how the threads interleave, which is what makes
//! every consumer of the engine byte-deterministic across thread counts:
//! downstream code never sees scheduling.
//!
//! The executor is generic over the job and result types — the sweep
//! layers ([`crate::grid`], [`crate::job`]) specialize it to
//! `(RunConfig, specs, seed) → RunReport`, but experiments with
//! non-`run_batched` workloads (learning runners, open-market baselines)
//! drive it directly through [`map`].

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

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

/// Run `f` over `items` on `threads` workers, delivering each
/// `(index, result)` to `sink` in strictly increasing index order.
///
/// `f` is invoked as `f(worker, index, item)` — the worker id exists for
/// scheduling diagnostics and tests; results must not depend on it. The
/// calling thread is worker 0 and runs cells itself; it spawns
/// `min(threads, items.len()) − 1` scoped helpers numbered from 1, so
/// with one thread or one item every cell runs on the caller.
/// The sink always runs on the calling thread, and sees the contiguous
/// prefix `0, 1, 2, …` as soon as each index's result lands.
///
/// Helpers never wait for the caller: their results queue unread while
/// the caller runs a cell, so the reorder buffer holds at most the
/// results finished past the lowest unfinished index (bounded by
/// job-duration skew). A panicking cell re-raises on the calling thread
/// once every helper has stopped.
pub fn execute_streaming<T, R, F>(
    items: Vec<T>,
    threads: usize,
    f: F,
    sink: &mut dyn FnMut(usize, R),
) -> ExecStatus
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let total = items.len();
    let workers = threads.clamp(1, total.max(1));
    // The lock is held only to take the next item, never across `f`, so
    // a panicking cell cannot poison it.
    let cursor = Mutex::new(items.into_iter().enumerate());
    let claim = || cursor.lock().unwrap().next();
    let (claim, f) = (&claim, &f);
    let mut reorder = Reorder::new();
    std::thread::scope(|scope| {
        // Unbounded: a helper must never stall on the caller running a
        // cell of its own.
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        for worker in 1..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some((index, item)) = claim() {
                    // A send fails only if the caller panicked out of the
                    // receive loop.
                    if tx.send((index, f(worker, index, item))).is_err() {
                        break;
                    }
                }
            });
        }
        // The helpers hold the only remaining senders: the receive loop
        // below ends exactly when all of them have exited.
        drop(tx);

        loop {
            for (index, result) in rx.try_iter() {
                reorder.park(index, result);
            }
            while let Some((index, result)) = reorder.pop() {
                sink(index, result);
            }
            let Some((index, item)) = claim() else { break };
            let result = f(0, index, item);
            if index == reorder.next() {
                reorder.skip();
                sink(index, result);
            } else {
                reorder.park(index, result);
            }
        }
        for (index, result) in rx {
            reorder.park(index, result);
            while let Some((index, result)) = reorder.pop() {
                sink(index, result);
            }
        }
    });

    ExecStatus { completed: total, total }
}

/// A reorder buffer: parks results that arrive ahead of the next index
/// and hands back the contiguous prefix in increasing index order.
///
/// Its consumer must keep receiving while it waits for `next` (the
/// missing result arrives over the same funnel as the rest), so the
/// buffer itself is unbounded; callers bound it by how far ahead of
/// `next` they let work be claimed, or else by job-duration skew.
pub(crate) struct Reorder<R> {
    parked: BTreeMap<usize, R>,
    next: usize,
}

impl<R> Reorder<R> {
    /// An empty buffer expecting index 0 first.
    pub(crate) fn new() -> Self {
        Reorder { parked: BTreeMap::new(), next: 0 }
    }

    /// The next index to hand back.
    pub(crate) fn next(&self) -> usize {
        self.next
    }

    /// Park the result for `index`.
    pub(crate) fn park(&mut self, index: usize, result: R) {
        self.parked.insert(index, result);
    }

    /// Take the result for `next`, if it has arrived, and move past it.
    pub(crate) fn pop(&mut self) -> Option<(usize, R)> {
        let result = self.parked.remove(&self.next)?;
        self.next += 1;
        Some((self.next - 1, result))
    }

    /// Move past `next` without a parked result: the consumer produced
    /// and delivered it itself.
    pub(crate) fn skip(&mut self) {
        self.next += 1;
    }
}

/// Run `f` over `items` on `threads` workers and collect the results in
/// index order. See [`execute_streaming`] for scheduling semantics.
pub fn map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    execute_streaming(items, threads, f, &mut |index, result| {
        debug_assert_eq!(index, out.len());
        out.push(result);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn results_arrive_in_index_order() {
        // Reverse the natural completion order: early indices sleep
        // longest, so without the reorder buffer the sink would see
        // descending indices first.
        for threads in 1..=4 {
            let items: Vec<u64> = (0..12).map(|i| (12 - i) * 3).collect();
            let mut seen = Vec::new();
            let status = execute_streaming(
                items,
                threads,
                |_, idx, ms| {
                    std::thread::sleep(Duration::from_millis(ms));
                    idx * 10
                },
                &mut |i, r| seen.push((i, r)),
            );
            assert!(status.is_complete(), "{threads} threads");
            assert_eq!(seen, (0..12).map(|i| (i, i * 10)).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn a_stuck_cell_does_not_block_the_other_claims() {
        // Job 0 cannot finish until every other job has run, so the sweep
        // completes only if the remaining threads claim past it. The
        // deadline turns a hang into a failure; the success path never
        // sleeps.
        let n = 16usize;
        for threads in [2, 4] {
            let others_done = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut seen = Vec::new();
            let status = execute_streaming(
                (0..n).collect::<Vec<_>>(),
                threads,
                |_, idx, job: usize| {
                    if idx == 0 {
                        while others_done.load(Ordering::Acquire) < n - 1 {
                            assert!(Instant::now() < deadline, "peers never claimed past job 0");
                            std::thread::yield_now();
                        }
                    } else {
                        others_done.fetch_add(1, Ordering::Release);
                    }
                    job * 2
                },
                &mut |i, r| seen.push((i, r)),
            );
            assert!(status.is_complete(), "{threads} threads");
            assert_eq!(seen, (0..n).map(|j| (j, j * 2)).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn one_worker_runs_every_cell_on_the_caller() {
        let caller = std::thread::current().id();
        for (threads, n) in [(1, 8), (4, 1)] {
            let mut seen = 0usize;
            let status = execute_streaming(
                (0..n).collect::<Vec<usize>>(),
                threads,
                |worker, _, job| {
                    assert_eq!(worker, 0, "threads={threads} n={n}");
                    assert_eq!(std::thread::current().id(), caller, "threads={threads} n={n}");
                    job
                },
                &mut |_, _| seen += 1,
            );
            assert!(status.is_complete());
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
}
