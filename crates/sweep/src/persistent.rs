//! A persistent worker pool reused across sweeps.
//!
//! The scoped executor in [`crate::pool`] spawns fresh OS threads for
//! every sweep, which costs tens of microseconds per thread — noise for
//! a multi-second grid, but a measurable fixed tax when experiments fire
//! many small sweeps back to back (every `repro` experiment is a handful
//! of sub-second grids). [`WorkerPool`] keeps a set of long-lived
//! threads parked on a condition variable and hands them work per sweep,
//! so repeated [`Grid`](crate::Grid) runs amortize thread spawn to zero.
//!
//! ## Determinism
//!
//! The persistent path reuses the exact scheduling machinery of the
//! scoped path — the same [`StealQueues`] dealing, the same bounded
//! result funnel, and the same reorder buffer releasing the contiguous
//! job-index prefix — so its output is byte-identical to the scoped
//! executor at any thread count, and across consecutive sweeps on the
//! same pool (`reused_pool_is_byte_identical` below is the regression
//! test).
//!
//! ## When the scoped path still runs
//!
//! Persistent threads outlive any one call, so jobs routed here must be
//! `'static`; the generic borrowed-closure entry points
//! ([`crate::pool::execute_streaming`] and friends) keep using scoped
//! threads. [`execute_streaming_pooled`] also falls back to the scoped
//! executor when invoked *from inside* a pool worker (a nested sweep
//! would otherwise wait on pool threads that its own parent call
//! occupies — thread-starvation deadlock).

use crate::pool::{drain_reorder, ExecStatus};
use crate::progress::{CancelToken, ProgressFn};
use crate::queue::StealQueues;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of pool work: drain one sweep's steal queues.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// The injector queue plus the resize protocol's bookkeeping, under one
/// lock so a worker atomically chooses between exiting and picking up
/// work, and a resize sees exactly which workers are still serving.
#[derive(Default)]
struct Inject {
    /// Pending tasks, oldest first.
    tasks: VecDeque<Task>,
    /// Serials of the workers currently commissioned to serve.
    /// [`WorkerPool::resize`] edits this set *synchronously*: shrinking
    /// de-commissions the highest serials, and a de-commissioned worker
    /// exits the next time it looks for work. Serials are never reused,
    /// so a de-commissioned-but-still-parked thread can never be
    /// confused with a replacement.
    serving: std::collections::BTreeSet<u64>,
    /// Next serial to assign.
    next_serial: u64,
}

/// Shared state between the pool handle and its worker threads.
#[derive(Default)]
struct Shared {
    /// Pending tasks and retire requests.
    injector: Mutex<Inject>,
    /// Signaled when a task or retire is queued (or shutdown requested).
    available: Condvar,
    /// Set by [`WorkerPool`]'s `Drop`; workers exit instead of parking.
    shutdown: std::sync::atomic::AtomicBool,
}

thread_local! {
    /// True while the current thread is a pool worker executing a task —
    /// the nested-sweep fallback check.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A persistent, resizable set of worker threads for sweep execution.
///
/// Threads are spawned on demand and park on a condition variable
/// between sweeps; each sweep settles the pool to its own width
/// ([`WorkerPool::resize`]), so alternating wide and narrow sweeps
/// don't strand parked threads at the historical high-water mark. The
/// process-wide instance behind [`WorkerPool::global`] is what
/// [`Grid`](crate::Grid) runs on; creating private pools is mainly
/// useful in tests.
///
/// ```
/// use clamshell_sweep::{execute_streaming_pooled, CancelToken, WorkerPool};
///
/// let pool = WorkerPool::new();
/// let mut doubled = Vec::new();
/// execute_streaming_pooled(
///     &pool,
///     vec![1u64, 2, 3],
///     2,
///     &CancelToken::new(),
///     None,
///     |_worker, _index, x| x * 2,
///     &mut |_index, r| doubled.push(r),
/// );
/// assert_eq!(doubled, vec![2, 4, 6]); // index order, not completion order
/// assert_eq!(pool.threads(), 2); // parked, ready for the next sweep
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Worker join handles; also the current thread count.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads()).finish()
    }
}

impl WorkerPool {
    /// A pool with no threads yet; workers are added by
    /// [`WorkerPool::resize`] as sweeps request parallelism.
    pub fn new() -> Self {
        WorkerPool { shared: Arc::new(Shared::default()), handles: Mutex::new(Vec::new()) }
    }

    /// The process-wide pool shared by every [`Grid`](crate::Grid) sweep.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Current number of serving workers: threads that will take the
    /// next task. Deterministic immediately after a [`WorkerPool::resize`]
    /// (de-commissioned threads leave the serving set synchronously, even
    /// if the OS thread is still winding down).
    pub fn threads(&self) -> usize {
        self.shared.injector.lock().unwrap().serving.len()
    }

    /// Join worker handles whose threads have already exited (completed
    /// retires), so the handle list stays bounded by the serving width.
    fn reap(handles: &mut Vec<std::thread::JoinHandle<()>>) {
        let mut live = Vec::with_capacity(handles.len());
        for handle in handles.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        *handles = live;
    }

    /// Settle the pool at exactly `n` serving workers (floored at 1):
    /// spawn fresh workers when below, de-commission the newest serials
    /// when above. De-commissioned workers exit the next time they look
    /// for work, so repeated sweeps at alternating widths settle at the
    /// latest width instead of stranding parked threads at the
    /// historical high-water mark.
    ///
    /// A mid-sweep shrink is safe: de-commissioned workers exit
    /// *between* tasks (forwarding any pending wakeup), queued tasks are
    /// only taken by commissioned workers, and the floor of one worker
    /// keeps any submitted sweep draining.
    pub fn resize(&self, n: usize) {
        let n = n.max(1);
        let mut handles = self.handles.lock().unwrap();
        Self::reap(&mut handles);
        let mut inject = self.shared.injector.lock().unwrap();
        while inject.serving.len() > n {
            if let Some(&serial) = inject.serving.iter().next_back() {
                inject.serving.remove(&serial);
            }
        }
        while inject.serving.len() < n {
            let serial = inject.next_serial;
            inject.next_serial += 1;
            inject.serving.insert(serial);
            let shared = self.shared.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("clamshell-sweep-{serial}"))
                    .spawn(move || worker_loop(&shared, serial))
                    // clamshell-lint: allow(D006) -- failing to spawn a pool worker at startup is unrecoverable; fail fast
                    .expect("spawn sweep worker"),
            );
        }
        drop(inject);
        // Wake parked workers so de-commissioned serials observe it.
        self.shared.available.notify_all();
    }

    /// Queue one task for any parked worker.
    fn submit(&self, task: Task) {
        self.shared.injector.lock().unwrap().tasks.push_back(task);
        self.shared.available.notify_one();
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for WorkerPool {
    /// Shut the workers down and join them, so a dropped (non-global)
    /// pool releases its OS threads instead of leaking them parked on
    /// the condvar. Tasks still queued at drop time are discarded —
    /// every executor call drains its own results before returning, so
    /// nothing observable is in flight when a pool can be dropped.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, std::sync::atomic::Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Body of a persistent worker thread: pull tasks until the pool shuts
/// down (its `Drop`). A panicking task is contained so one bad job can't
/// kill a pool thread and starve every later sweep — the coordinator
/// detects the missing result and re-raises (see
/// [`execute_streaming_pooled`]).
fn worker_loop(shared: &Shared, serial: u64) {
    use std::sync::atomic::Ordering;
    loop {
        let task = {
            let mut inject = shared.injector.lock().unwrap();
            loop {
                // The commission check outranks pending tasks: the
                // resize target is a thread-count invariant, and any
                // queued task is equally runnable by a commissioned
                // worker (resize never narrows below one). A wakeup
                // this thread absorbed on its way out is forwarded so
                // no queued task loses its signal.
                if !inject.serving.contains(&serial) {
                    if !inject.tasks.is_empty() {
                        shared.available.notify_one();
                    }
                    return;
                }
                if let Some(task) = inject.tasks.pop_front() {
                    break task;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // clamshell-lint: allow(D006) -- condvar poison means a sibling worker panicked; propagating the panic is the contract
                inject = shared.available.wait(inject).unwrap();
            }
        };
        IN_POOL_WORKER.with(|flag| flag.set(true));
        // Contain panics: unwinding drops the task's result sender, so
        // the coordinator observes the missing index instead of hanging,
        // and this thread stays alive for subsequent sweeps.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        IN_POOL_WORKER.with(|flag| flag.set(false));
        if let Err(payload) = outcome {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("clamshell-sweep: pool worker contained a job panic: {what}");
        }
    }
}

/// [`crate::pool::execute_streaming`], but on the persistent pool.
///
/// Semantics are identical to the scoped executor — `f(worker, index,
/// item)` over a work-stealing deal, results delivered to `sink` in
/// strictly increasing index order, `progress` on the coordinating
/// thread — with one addition: the pool is settled to `threads` workers
/// and the threads are *reused* by every subsequent call at the same
/// width instead of being respawned. Jobs must be `'static` (they outlive the
/// caller's stack from the pool's perspective); `sink` and `progress`
/// still run on the calling thread and may borrow freely.
///
/// When called from inside a pool worker (a job that itself sweeps),
/// execution transparently falls back to the scoped executor so a
/// nested sweep can never deadlock waiting for the threads its parent
/// occupies.
pub fn execute_streaming_pooled<T, R, F>(
    pool: &WorkerPool,
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    progress: Option<ProgressFn<'_>>,
    f: F,
    sink: &mut dyn FnMut(usize, R),
) -> ExecStatus
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, usize, T) -> R + Send + Sync + 'static,
{
    if IN_POOL_WORKER.with(|flag| flag.get()) {
        return crate::pool::execute_streaming(items, threads, cancel, progress, f, sink);
    }
    let total = items.len();
    let workers = threads.max(1).min(total.max(1));
    pool.resize(workers);

    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queues = Arc::new(StealQueues::deal(indexed, workers));
    // Same bounded funnel as the scoped path: workers block once
    // `workers` results sit unread, so cancellation stops the fleet
    // within ~2 jobs per worker.
    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers);
    let f = Arc::new(f);

    for worker in 0..workers {
        let queues = queues.clone();
        let f = f.clone();
        let tx = tx.clone();
        let cancel = cancel.clone();
        pool.submit(Box::new(move || {
            while !cancel.is_cancelled() {
                let Some(((index, item), _stolen)) = queues.pop(worker) else { break };
                // A send only fails if the receiver hung up, which the
                // coordinator never does before the channel drains.
                let _ = tx.send((index, f(worker, index, item)));
            }
        }));
    }
    // The submitted tasks hold the only remaining senders: `recv` errors
    // out exactly when the last drain task exits.
    drop(tx);

    let delivered = drain_reorder(rx, progress, total, sink);
    // A shortfall without cancellation means a job panicked inside a
    // pool worker (contained there so the pool survives); re-raise on
    // the caller's thread, matching the scoped executor's behavior.
    if delivered < total && !cancel.is_cancelled() {
        panic!(
            "sweep job panicked on the persistent pool: {} of {total} results delivered",
            delivered
        );
    }
    ExecStatus { completed: delivered, total, cancelled: cancel.is_cancelled() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn run_on(pool: &WorkerPool, n: usize, threads: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let status = execute_streaming_pooled(
            pool,
            (0..n).collect(),
            threads,
            &CancelToken::new(),
            None,
            |_, _, j: usize| j * 7,
            &mut |i, r| {
                assert_eq!(i * 7, r);
                out.push(r)
            },
        );
        assert!(status.is_complete());
        out
    }

    /// The serving width is exact immediately; the surplus OS threads
    /// wind down asynchronously, so poll until they are joinable.
    fn assert_settles_to(pool: &WorkerPool, want: usize) {
        assert_eq!(pool.threads(), want, "serving width is deterministic");
        for _ in 0..5000 {
            let os_threads = {
                let mut handles = pool.handles.lock().unwrap();
                WorkerPool::reap(&mut handles);
                handles.len()
            };
            if os_threads == want {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("{want}-wide pool still holds surplus OS threads");
    }

    #[test]
    fn pool_settles_to_each_sweeps_width() {
        let pool = WorkerPool::new();
        assert_eq!(pool.threads(), 0);
        let a = run_on(&pool, 16, 3);
        assert_eq!(pool.threads(), 3);
        let b = run_on(&pool, 16, 3);
        // Thread count unchanged: the second sweep reused the workers.
        assert_eq!(pool.threads(), 3);
        assert_eq!(a, b);
        // A wider sweep grows the pool; a narrower one shrinks it back,
        // rather than stranding parked threads at the high-water mark.
        run_on(&pool, 8, 5);
        assert_eq!(pool.threads(), 5);
        run_on(&pool, 8, 1);
        assert_settles_to(&pool, 1);
    }

    #[test]
    fn alternating_widths_stay_byte_identical_and_do_not_strand_threads() {
        // The monotonic-growth regression: alternating sweep widths must
        // neither accumulate threads nor perturb a single byte of output.
        let pool = WorkerPool::new();
        let reference = run_on(&pool, 24, 1);
        for round in 0..4 {
            for width in [4, 1, 3, 1] {
                assert_eq!(run_on(&pool, 24, width), reference, "round {round} width {width}");
            }
        }
        // After the narrow tail sweep, the pool settles at one worker.
        assert_settles_to(&pool, 1);
        assert!(pool.shared.injector.lock().unwrap().tasks.is_empty());
        // Cancelled retires: growing right back reuses parked workers
        // whose retire request was still pending.
        pool.resize(3);
        pool.resize(1);
        pool.resize(3);
        assert_settles_to(&pool, 3);
        assert_eq!(run_on(&pool, 24, 3), reference);
    }

    #[test]
    fn pooled_results_arrive_in_index_order() {
        let pool = WorkerPool::new();
        let mut seen = Vec::new();
        let items: Vec<u64> = (0..12).map(|i| (12 - i) * 3).collect();
        let status = execute_streaming_pooled(
            &pool,
            items,
            4,
            &CancelToken::new(),
            None,
            |_, idx, ms: u64| {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                idx * 10
            },
            &mut |i, r| seen.push((i, r)),
        );
        assert!(status.is_complete());
        assert_eq!(seen, (0..12).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_cancellation_skips_pending_jobs() {
        let pool = WorkerPool::new();
        let cancel = CancelToken::new();
        let cancel_ref = cancel.clone();
        let mut sink_count = 0usize;
        // 'static job closure: count starts through an Arc'd atomic.
        let counter = Arc::new(AtomicUsize::new(0));
        let counter_job = counter.clone();
        let status = execute_streaming_pooled(
            &pool,
            (0..32).collect::<Vec<usize>>(),
            1,
            &cancel,
            Some(&mut |done, _| {
                if done == 2 {
                    cancel_ref.cancel();
                }
            }),
            move |_, _, j: usize| {
                counter_job.fetch_add(1, Ordering::Relaxed);
                j
            },
            &mut |_, _| sink_count += 1,
        );
        assert!(status.cancelled);
        assert!(!status.is_complete());
        assert!(status.completed <= 8, "completed {}", status.completed);
        assert_eq!(status.completed, sink_count);
        assert_eq!(counter.load(Ordering::Relaxed), status.completed);
    }

    #[test]
    fn cancellation_at_every_index_matches_sink_folds() {
        // The cancellation-vs-aggregation contract: no matter where the
        // cancel lands, `ExecStatus::completed` equals the number of
        // results the sink actually folded — an aggregator fed by this
        // executor can never under- or over-count relative to the
        // status it reports.
        let pool = WorkerPool::new();
        let n = 12usize;
        for threads in [1, 4] {
            for kill_after in 1..=n {
                let cancel = CancelToken::new();
                let cancel_ref = cancel.clone();
                let mut folds = 0usize;
                let status = execute_streaming_pooled(
                    &pool,
                    (0..n).collect::<Vec<usize>>(),
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
    fn job_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_streaming_pooled(
                &pool,
                vec![1usize, 2, 3, 4],
                2,
                &CancelToken::new(),
                None,
                |_, _, j: usize| {
                    if j == 2 {
                        panic!("job blew up");
                    }
                    j
                },
                &mut |_, _: usize| {},
            )
        }));
        assert!(caught.is_err(), "a panicking job must re-raise on the caller");
        // The workers contained the panic: the same pool still runs
        // complete sweeps afterwards.
        assert_eq!(run_on(&pool, 8, 2), (0..8).map(|j| j * 7).collect::<Vec<_>>());
    }

    #[test]
    fn nested_call_from_worker_falls_back_to_scoped() {
        // A job that itself runs a pooled sweep on the same pool: without
        // the scoped fallback this deadlocks (the only pool thread is
        // busy hosting the outer job while the inner one waits for it).
        let pool = Arc::new(WorkerPool::new());
        let inner_pool = pool.clone();
        let mut outer = Vec::new();
        let status = execute_streaming_pooled(
            &pool,
            vec![10usize, 20],
            1,
            &CancelToken::new(),
            None,
            move |_, _, base: usize| {
                let mut inner = 0usize;
                let st = execute_streaming_pooled(
                    &inner_pool,
                    (0..4).collect::<Vec<usize>>(),
                    2,
                    &CancelToken::new(),
                    None,
                    |_, _, j: usize| j,
                    &mut |_, r| inner += r,
                );
                assert!(st.is_complete());
                base + inner
            },
            &mut |_, r| outer.push(r),
        );
        assert!(status.is_complete());
        assert_eq!(outer, vec![16, 26]);
    }
}
