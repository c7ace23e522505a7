//! The generic scatter/gather executor.
//!
//! [`execute_streaming`] is the engine's heart: it fans a job list
//! across scoped worker threads pulling from a [`StealQueues`] set,
//! funnels `(index, result)` pairs back over an mpsc channel, and passes
//! them through a reorder buffer so the caller's sink observes results
//! in **strictly increasing job-index order** no matter how the threads
//! interleave. That reorder buffer is what makes every consumer of the
//! engine byte-deterministic across thread counts: downstream code never
//! sees scheduling.
//!
//! The executor is generic over the job and result types — the sweep
//! layers ([`crate::grid`], [`crate::job`]) specialize it to
//! `(RunConfig, specs, seed) → RunReport`, but experiments with
//! non-`run_batched` workloads (learning runners, open-market baselines)
//! drive it directly with closures.

use crate::progress::{CancelToken, ProgressFn};
use crate::queue::StealQueues;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// Outcome of an executor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStatus {
    /// Jobs whose results were produced and delivered.
    pub completed: usize,
    /// Jobs submitted.
    pub total: usize,
    /// True when the sweep was cancelled before finishing.
    pub cancelled: bool,
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
/// scheduling diagnostics and tests; results must not depend on it.
/// While the sweep is healthy the sink sees the contiguous prefix
/// `0, 1, 2, …` as soon as each index's result lands; after a
/// cancellation, results beyond a skipped job are flushed at the end,
/// still in increasing order but with gaps. `progress` (if given) is
/// called as `(delivered, total)` after each sink call, on the
/// coordinating thread — it may flip the [`CancelToken`] to stop the
/// sweep mid-flight.
///
/// Workers exit when every queue is observed empty or cancellation is
/// requested; in-flight jobs always run to completion.
pub fn execute_streaming<T, R, F>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    progress: Option<ProgressFn<'_>>,
    f: F,
    sink: &mut dyn FnMut(usize, R),
) -> ExecStatus
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let total = items.len();
    let workers = threads.max(1).min(total.max(1));
    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queues = StealQueues::deal(indexed, workers);
    // Bounded funnel: workers block once `workers` results sit unread in
    // the channel, so a cancellation request stops the fleet within ~2
    // jobs per worker and workers can't race arbitrarily far ahead of
    // the coordinator. Note this bounds the *channel*, not total
    // in-flight memory: the reorder buffer below must hold every
    // completed-but-undeliverable result, so its size is bounded by
    // job-duration skew (worst case, one pathologically slow low-index
    // job lets it grow to O(remaining jobs)).
    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers);
    let f = &f;
    let queues = &queues;

    let mut delivered = 0usize;
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while !cancel.is_cancelled() {
                    let Some(((index, item), _stolen)) = queues.pop(worker) else { break };
                    // A send only fails if the receiver hung up, which the
                    // coordinator never does before the channel drains.
                    let _ = tx.send((index, f(worker, index, item)));
                }
            });
        }
        // The workers hold the only remaining senders: `recv` errors out
        // exactly when all of them have exited.
        drop(tx);

        delivered = drain_reorder(rx, progress, total, sink);
    });

    ExecStatus { completed: delivered, total, cancelled: cancel.is_cancelled() }
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

    /// Everything still parked, in increasing index order (cancellation
    /// can leave holes before it).
    pub(crate) fn into_parked(self) -> impl Iterator<Item = (usize, R)> {
        self.parked.into_iter()
    }
}

/// The coordinator's receive loop, shared by the scoped executor above
/// and the persistent-pool executor in [`crate::persistent`]: drain the
/// result funnel through a [`Reorder`] buffer so `sink` observes strictly
/// increasing job indices, and return how many results were delivered.
pub(crate) fn drain_reorder<R>(
    rx: mpsc::Receiver<(usize, R)>,
    mut progress: Option<ProgressFn<'_>>,
    total: usize,
    sink: &mut dyn FnMut(usize, R),
) -> usize {
    let mut delivered = 0usize;
    let mut deliver = |index: usize, result: R| {
        sink(index, result);
        delivered += 1;
        if let Some(p) = progress.as_mut() {
            p(delivered, total);
        }
    };
    let mut reorder = Reorder::new();
    while let Ok((index, result)) = rx.recv() {
        reorder.park(index, result);
        while let Some((index, result)) = reorder.pop() {
            deliver(index, result);
        }
    }
    // Cancellation can leave holes; flush what completed beyond them,
    // still in increasing index order.
    for (index, result) in reorder.into_parked() {
        deliver(index, result);
    }
    delivered
}

/// Run `f` over `items` and collect results in index order.
///
/// Cancelled (skipped) jobs yield `None`; a run that was never cancelled
/// returns all `Some`. See [`execute_streaming`] for scheduling
/// semantics.
pub fn execute<T, R, F>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    f: F,
) -> (Vec<Option<R>>, ExecStatus)
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let status = execute_streaming(items, threads, cancel, None, f, &mut |i, r| out[i] = Some(r));
    (out, status)
}

/// Convenience: run `f` over `items` with no cancellation and unwrap the
/// results (all jobs are guaranteed to complete).
pub fn map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let (out, status) = execute(items, threads, &CancelToken::new(), f);
    debug_assert!(status.is_complete());
    // clamshell-lint: allow(D006) -- a fresh CancelToken is never cancelled, so every slot is Some
    out.into_iter().map(|r| r.expect("uncancelled job must complete")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn results_arrive_in_index_order() {
        // Reverse the natural completion order: early indices sleep
        // longest, so without the reorder buffer the sink would see
        // descending indices first.
        let items: Vec<u64> = (0..12).map(|i| (12 - i) * 3).collect();
        let mut seen = Vec::new();
        let status = execute_streaming(
            items,
            4,
            &CancelToken::new(),
            None,
            |_, idx, ms| {
                std::thread::sleep(Duration::from_millis(ms));
                idx * 10
            },
            &mut |i, r| seen.push((i, r)),
        );
        assert!(status.is_complete());
        assert_eq!(seen, (0..12).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn one_slow_job_is_absorbed_by_stealing() {
        // Job 0 is pathologically slow. Its home worker (worker 0) is
        // pinned on it, so every other job — including the rest of
        // worker 0's round-robin share — must be executed by the other
        // workers via stealing.
        let slow = 0usize;
        let n = 16usize;
        let who: Mutex<Vec<usize>> = Mutex::new(vec![usize::MAX; n]);
        let (out, status) =
            execute((0..n).collect::<Vec<_>>(), 4, &CancelToken::new(), |worker, idx, job| {
                if job == slow {
                    std::thread::sleep(Duration::from_millis(200));
                }
                who.lock().unwrap()[idx] = worker;
                job * 2
            });
        assert!(status.is_complete());
        assert_eq!(
            out.iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            (0..n).map(|j| j * 2).collect::<Vec<_>>()
        );
        let who = who.lock().unwrap();
        let slow_worker = who[slow];
        // Without stealing, the slow job's worker would also run the
        // rest of its round-robin share (4 of 16 jobs). With stealing,
        // peers drain that share while the sleep holds it.
        let by_slow_worker = who.iter().filter(|&&w| w == slow_worker).count();
        assert!(
            by_slow_worker < 4,
            "peers should steal the slow worker's share, ran {by_slow_worker}"
        );
    }

    #[test]
    fn cancellation_skips_pending_jobs() {
        let started = AtomicUsize::new(0);
        let cancel = CancelToken::new();
        let n = 32usize;
        // Single worker, cancel from the progress hook after 2
        // deliveries. The bounded funnel means the worker can only be a
        // couple of jobs ahead of the deliveries, so most of the queue
        // must be skipped.
        let mut progress_calls = 0usize;
        let cancel_ref = &cancel;
        let mut sink_count = 0usize;
        let status = execute_streaming(
            (0..n).collect::<Vec<_>>(),
            1,
            &cancel,
            Some(&mut |done, _total| {
                progress_calls += 1;
                if done == 2 {
                    cancel_ref.cancel();
                }
            }),
            |_, _, j: usize| {
                started.fetch_add(1, Ordering::Relaxed);
                j
            },
            &mut |_, _| sink_count += 1,
        );
        assert!(status.cancelled);
        assert!(!status.is_complete());
        // Worst case the worker is one popped job plus one buffered
        // result past the cancel point.
        assert!(status.completed <= 8, "completed {}", status.completed);
        assert_eq!(status.completed, sink_count);
        assert_eq!(progress_calls, sink_count);
        // Every started job runs to completion and is delivered.
        assert_eq!(started.load(Ordering::Relaxed), status.completed);
    }

    #[test]
    fn cancellation_at_every_index_matches_sink_folds() {
        // Scoped-executor half of the cancellation-vs-aggregation
        // contract (see the persistent-pool twin): wherever the cancel
        // lands, `completed` equals the sink's fold count exactly.
        let n = 12usize;
        for threads in [1, 4] {
            for kill_after in 1..=n {
                let cancel = CancelToken::new();
                let cancel_ref = &cancel;
                let mut folds = 0usize;
                let status = execute_streaming(
                    (0..n).collect::<Vec<_>>(),
                    threads,
                    &cancel,
                    Some(&mut |done, _| {
                        if done == kill_after {
                            cancel_ref.cancel();
                        }
                    }),
                    |_, _, j: usize| j * 3,
                    &mut |i, r| {
                        assert_eq!(r, i * 3);
                        folds += 1;
                    },
                );
                assert_eq!(
                    status.completed, folds,
                    "t={threads} kill@{kill_after}: status/fold divergence"
                );
                assert!(status.cancelled);
                assert!(status.completed >= kill_after, "t={threads} kill@{kill_after}");
            }
        }
    }

    #[test]
    fn execute_marks_skipped_jobs_none() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (out, status) = execute((0..8).collect::<Vec<_>>(), 2, &cancel, |_, _, j: usize| j);
        assert!(status.cancelled);
        assert_eq!(status.completed, 0);
        assert!(out.iter().all(|r| r.is_none()));
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
