//! The deterministic discrete-event executor.
//!
//! [`Runner`] binds the CLAMShell policies (scheduling, straggler
//! mitigation, pool maintenance) to the simulated crowd platform. It is
//! the Rust equivalent of the paper's Python simulator plus the live
//! retainer implementation: a single event loop advancing simulated time
//! through worker arrivals, assignment completions, terminations, and
//! abandonments.
//!
//! Worker state: `WorkerId`s are dense (arrival order), so each worker's
//! idle flag, abandon epoch and patience live in one `WorkerId`-indexed
//! table. The reserve is one map keyed by `WorkerId`; workers enter it
//! only on arrival, so reserve order is arrival order is `WorkerId`
//! order. Every pool exit goes through `leave_pool`.
//!
//! Determinism contract: for a fixed [`RunConfig`] (including seed) and
//! task stream, two runs produce byte-identical [`RunReport`]s. Events at
//! equal times fire in schedule order; all collections iterate in
//! [`WorkerId`] order; every random draw comes from seeded streams.

use crate::adversity::{streams, BurstFault, ChurnFault};
use crate::config::{QcMode, RunConfig};
use crate::lifeguard::route;
use crate::maintainer::Maintainer;
use crate::metrics::{AssignmentRecord, BatchStats, RunReport, TaskRecord};
use crate::task::{
    Assignment, AssignmentId, LabelSpan, StateView, TaskId, TaskResponse, TaskSpec, TaskState,
};
use clamshell_crowd::{CostLedger, RetainerPool, SimPlatform, WorkerId};
use clamshell_obs::{RunObserver, TraceKind};
use clamshell_quality::voting::{majority_vote, Vote};
use clamshell_sim::events::EventQueue;
use clamshell_sim::faults::{fault_stream, OutageSchedule};
use clamshell_sim::rng::Rng;
use clamshell_sim::stats::OnlineStats;
use clamshell_sim::time::{SimDuration, SimTime};
use clamshell_trace::Population;
use std::collections::BTreeMap;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A recruited worker finished qualification and arrives.
    WorkerReady,
    /// An assignment reaches its planned completion.
    AssignmentDone(AssignmentId),
    /// A terminated worker finished the termination dialog.
    WorkerFreed(WorkerId),
    /// Patience check: the worker abandons if still idle and the epoch
    /// matches (stale checks are ignored).
    Abandon(WorkerId, u32),
    /// Adversity churn: the assignment's worker walks out mid-task,
    /// abandoning both the assignment and their retainer slot.
    Walkout(AssignmentId),
    /// Pool lifecycle: a reserve worker's idle timeout elapsed; if they
    /// are still in the reserve they are paid off and released.
    ReserveTimeout(WorkerId),
    /// Clock marker used by [`Runner::advance`]; no state change.
    Nop,
}

/// The report rows drained by one [`Runner::retire_completed`] call:
/// everything logged since the previous retirement, in the same order
/// the retained-mode vectors would hold it.
#[derive(Debug, Clone, Default)]
pub struct RetiredRows {
    /// Completed-task records, in completion order.
    pub tasks: Vec<TaskRecord>,
    /// Assignment records, in the order assignments ended.
    pub assignments: Vec<AssignmentRecord>,
    /// Per-batch statistics, in batch order.
    pub batches: Vec<BatchStats>,
}

/// Cumulative worker-lifecycle counters, never retired — streaming
/// checkpoints report them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Workers ever recruited by the platform.
    pub recruited: usize,
    /// Workers evicted by pool maintenance.
    pub evicted: u64,
    /// Workers who walked out mid-assignment.
    pub departed: u64,
    /// Reserve workers released by the idle timeout.
    pub reserve_expired: u64,
    /// Stale (pre-blackout generation) members retired at checkout.
    pub stale_retired: u64,
}

/// One recruited worker's runner-side state (see `Runner::seats`).
#[derive(Debug, Clone, Copy)]
struct Seat {
    /// Idle in the pool and dispatchable right now. Only pool members are
    /// ever idle: `leave_pool` clears the flag.
    idle: bool,
    /// Abandon-check invalidation epoch, bumped on every assignment.
    abandon_epoch: u32,
    /// Retainer patience, sampled when the worker joins the pool.
    patience: SimDuration,
}

/// The CLAMShell batch executor. See module docs.
pub struct Runner {
    cfg: RunConfig,
    platform: SimPlatform,
    queue: EventQueue<Event>,
    pool: RetainerPool,
    maintainer: Maintainer,
    rng: Rng,

    tasks: Vec<TaskState>,
    assignments: Vec<Assignment>,

    /// Id of `tasks[0]`. Task/assignment ids are *stream positions* that
    /// keep growing for the lifetime of a run; in batch mode they equal
    /// table indices (base 0), but [`Runner::retire_completed`] drops the
    /// completed prefix and bumps the bases so streamed-run memory stays
    /// bounded. All table lookups subtract the base (see [`StateView`]).
    task_base: u32,
    /// Id of `assignments[0]` (see `task_base`).
    assignment_base: u32,

    /// Current batch's task ids.
    batch_tasks: Vec<TaskId>,
    batch_index: usize,

    /// Per-worker state, indexed by `WorkerId` (ids are dense: the
    /// platform numbers workers in arrival order).
    seats: Vec<Seat>,
    /// Recruited workers not yet placed in the pool (the maintenance
    /// reserve), with when each started waiting off-pool. Workers enter
    /// it only on arrival, so key order is arrival order.
    reserve: BTreeMap<WorkerId, SimTime>,
    recruits_in_flight: usize,

    task_records: Vec<TaskRecord>,
    assignment_records: Vec<AssignmentRecord>,
    batch_stats: Vec<BatchStats>,
    started: Option<SimTime>,
    last_completion: SimTime,
    evicted_this_boundary: usize,

    // Adversity state (all `None`/zero on benign runs). Fault draws come
    // exclusively from dedicated streams so enabling a fault never
    // perturbs the platform, worker, or routing RNGs.
    /// Mid-assignment walkout fault and its dedicated stream.
    churn_fault: Option<(ChurnFault, Rng)>,
    /// Platform blackout schedule; submissions and recruit arrivals that
    /// fall inside a window are deferred to its end.
    outage: Option<OutageSchedule>,
    /// Workers who walked out mid-assignment.
    workers_departed: u64,

    // Pool lifecycle state (all inert at the default `PoolConfig`).
    /// Reserve idle timeout and its dedicated jitter stream; `Some` only
    /// when `cfg.pool.idle_timeout` is set, so benign runs draw nothing.
    pool_idle: Option<(SimDuration, Rng)>,
    /// End of the last outage window that bumped the pool generation
    /// (guards against bumping once per deferred event).
    last_outage_end: SimTime,
    /// Reserve workers released by the idle timeout.
    reserve_expired: u64,
    /// Stale members lazily retired at checkout after a generation bump.
    stale_retired: u64,

    // Observability (`None` when `cfg.obs` is disabled — the default).
    // The disabled path costs one branch per instrumentation point and
    // draws zero RNG values, so enabling obs never perturbs a run.
    /// Metrics registry + flight recorder.
    obs: Option<Box<RunObserver>>,
    /// End of the outage window the runner last deferred into; when the
    /// clock reaches it an `OutageResume` trace event is recorded.
    obs_outage_resume: Option<SimTime>,

    // Reused scratch buffers for the per-assignment hot path. Each is
    // cleared before use; holding them on the runner means the event loop
    // stops allocating once the high-water marks are reached.
    votes_scratch: Vec<Vote>,
    eligible_scratch: Vec<TaskId>,
    kick_scratch: Vec<WorkerId>,
    /// Staging buffer for a completing task's majority labels (they are
    /// copied into the arena once complete — the ballot loop reads
    /// response spans out of the arena, so it can't append mid-vote).
    finals_scratch: Vec<u32>,

    /// Shared storage for every response's labels and every task's final
    /// labels ([`LabelSpan`] handles live in the task table). One arena
    /// replaces one allocation per completed assignment plus one per
    /// completed task — amortized to zero once its high-water mark is
    /// reached, and cleared (capacity kept) when completed state retires.
    label_arena: Vec<u32>,
}

impl Runner {
    /// Create a runner over `population`. Call [`Runner::warm_up`] before
    /// the first batch.
    pub fn new(cfg: RunConfig, population: Population) -> Self {
        cfg.validate();
        // Platform-level faults ride inside the platform; the benign path
        // constructs the exact pre-adversity platform.
        let crowd_faults = cfg.adversity.as_ref().map(|a| a.crowd_faults());
        let platform = match crowd_faults {
            Some(f) if f.is_active() => {
                SimPlatform::with_faults(population, cfg.platform.clone(), cfg.seed, f)
            }
            _ => SimPlatform::new(population, cfg.platform.clone(), cfg.seed),
        };
        let churn_fault = cfg
            .adversity
            .as_ref()
            .and_then(|a| a.churn)
            .map(|c| (c, fault_stream(cfg.seed, streams::CHURN)));
        let outage = cfg.adversity.as_ref().and_then(|a| a.outage).map(|o| {
            OutageSchedule::new(
                cfg.seed,
                SimDuration::from_secs_f64(o.mean_uptime_secs),
                SimDuration::from_secs_f64(o.mean_outage_secs),
            )
        });
        let mut pool = RetainerPool::with_config(cfg.pool_size, cfg.pool);
        let obs = if cfg.obs.enabled {
            pool.enable_obs();
            Some(Box::new(RunObserver::new(&cfg.obs)))
        } else {
            None
        };
        let pool_idle =
            cfg.pool.idle_timeout.map(|t| (t, fault_stream(cfg.seed, streams::POOL_IDLE)));
        Runner {
            rng: Rng::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            platform,
            // In-flight events are bounded by the pool (one completion per
            // busy worker, plus abandon checks and recruitment arrivals).
            queue: EventQueue::with_capacity(cfg.pool_size * 4 + 16),
            pool,
            maintainer: Maintainer::new(),
            tasks: Vec::new(),
            assignments: Vec::new(),
            task_base: 0,
            assignment_base: 0,
            batch_tasks: Vec::new(),
            batch_index: 0,
            seats: Vec::new(),
            reserve: BTreeMap::new(),
            recruits_in_flight: 0,
            task_records: Vec::new(),
            assignment_records: Vec::new(),
            batch_stats: Vec::new(),
            started: None,
            last_completion: SimTime::ZERO,
            cfg,
            evicted_this_boundary: 0,
            churn_fault,
            outage,
            workers_departed: 0,
            pool_idle,
            last_outage_end: SimTime::ZERO,
            reserve_expired: 0,
            stale_retired: 0,
            obs,
            obs_outage_resume: None,
            votes_scratch: Vec::new(),
            eligible_scratch: Vec::new(),
            kick_scratch: Vec::new(),
            finals_scratch: Vec::new(),
            label_arena: Vec::new(),
        }
    }

    /// Pre-size the task/assignment tables and record vectors for a run
    /// labeling `n_tasks` tasks in total. [`run_batched`] calls this with
    /// the full spec count; skipping it is harmless (the vectors grow on
    /// demand) but costs regrow copies on large runs.
    pub fn reserve_tasks(&mut self, n_tasks: usize) {
        // Expected assignments per task: the vote quorum, plus one live
        // straggler replica at a time when mitigation can duplicate work.
        let per_task = self.cfg.quorum as usize + usize::from(self.cfg.straggler.is_some());
        self.tasks.reserve(n_tasks);
        self.task_records.reserve(n_tasks);
        self.assignments.reserve(n_tasks * per_task);
        self.assignment_records.reserve(n_tasks * per_task);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The maintainer (latency estimates, eviction counters).
    pub fn maintainer(&self) -> &Maintainer {
        &self.maintainer
    }

    /// The retainer pool.
    pub fn pool(&self) -> &RetainerPool {
        &self.pool
    }

    /// All task states (completed and otherwise).
    pub fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    /// Resolve a [`LabelSpan`] from this runner's task table against its
    /// label arena.
    pub fn labels(&self, span: LabelSpan) -> &[u32] {
        span.slice(&self.label_arena)
    }

    /// The majority-aggregated final labels of `task`, if complete.
    pub fn final_labels(&self, task: &TaskState) -> Option<&[u32]> {
        task.final_labels.map(|span| span.slice(&self.label_arena))
    }

    /// True mean per-label latency across current pool members — a
    /// simulator-only oracle (it reads the generative profiles) used to
    /// validate the §4.2 pool-convergence model against the closed form.
    pub fn pool_true_mpl(&self) -> f64 {
        let mut acc = OnlineStats::new();
        for (w, _) in self.pool.members() {
            acc.push(self.platform.profile(w).mean_latency);
        }
        acc.mean()
    }

    /// Fill the retainer pool to `Np` before the first batch. Recruitment
    /// time is excluded from run latency, matching §6.1: "we assume
    /// recruitment time is amortized across batches and measure latency
    /// from the moment the first task is sent to the pool."
    pub fn warm_up(&mut self) {
        self.ensure_recruitment();
        while self.pool.len() < self.pool.fill_target() {
            self.ensure_recruitment();
            let Some((_, ev)) = self.queue.pop() else {
                panic!("warm_up: event queue drained before pool filled");
            };
            self.handle(ev);
        }
    }

    /// Run one batch of tasks to completion; returns the batch index.
    pub fn run_batch(&mut self, specs: Vec<TaskSpec>) -> usize {
        assert!(!specs.is_empty(), "empty batch");
        let index = self.batch_index;
        let start = self.now();
        self.started.get_or_insert(start);

        self.batch_tasks.clear();
        for spec in specs {
            assert!(
                spec.truths.iter().all(|&t| t < self.cfg.n_classes),
                "task truth out of class range"
            );
            let id = TaskId(self.task_base + self.tasks.len() as u32);
            self.tasks.push(TaskState::new(spec, index, start));
            self.batch_tasks.push(id);
        }

        // When the pool runs below capacity (a `min_size` floor), promote
        // reserve workers to cover any demand the floor can't.
        self.surge_promote();

        self.kick_idle();

        // Pump events until every task in the batch completes.
        while !self.batch_complete() {
            let Some((_, ev)) = self.queue.pop() else {
                panic!(
                    "run_batch: deadlock — queue drained with incomplete tasks \
                     (pool={}, in-flight recruits={})",
                    self.pool.len(),
                    self.recruits_in_flight
                );
            };
            self.handle(ev);
        }

        let end = self.now();
        self.last_completion = end;
        // Maintenance at the batch boundary (the paper's simulator
        // replaces slow workers "after each batch").
        self.evicted_this_boundary = 0;
        self.maintenance_step();
        self.record_batch_stats(index, start, end);
        self.batch_index += 1;
        index
    }

    /// Finalize the run: settle outstanding waiting wages and produce the
    /// report.
    pub fn finish(mut self) -> RunReport {
        let now = self.now();
        let members: Vec<WorkerId> = self.pool.members().map(|(w, _)| w).collect();
        for w in members {
            self.leave_pool(w, now);
        }
        for (_, since) in std::mem::take(&mut self.reserve) {
            self.platform.pay_wait(now.since(since));
        }
        // Fold the pool's transition aggregates into the registry, then
        // collapse the observer into its serializable report.
        let obs_report = self.obs.take().map(|mut obs| {
            if let Some(pool_obs) = self.pool.obs() {
                obs.absorb_pool(pool_obs);
            }
            obs.into_report()
        });
        RunReport {
            tasks: self.task_records,
            assignments: self.assignment_records,
            batches: self.batch_stats,
            cost: *self.platform.ledger(),
            workers_recruited: self.platform.workers_recruited(),
            workers_evicted: self.maintainer.evictions,
            workers_departed: self.workers_departed,
            reserve_expired: self.reserve_expired,
            stale_retired: self.stale_retired,
            started: self.started.unwrap_or(SimTime::ZERO),
            finished: self.last_completion,
            obs: obs_report,
        }
    }

    /// Whether observability is enabled for this run.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Dump the flight-recorder tail to stderr as a JSONL section.
    /// Called by [`run_batched`] when a batch panics, so the event trail
    /// leading up to an invariant failure is never lost with the
    /// process. A no-op when obs is disabled.
    pub fn dump_obs(&self) {
        if let Some(obs) = &self.obs {
            let _ = obs.dump("panic-dump", self.cfg.seed, &mut std::io::stderr().lock());
        }
    }

    // ------------------------------------------------------------------
    // Streaming service mode: incremental report access + retirement
    // ------------------------------------------------------------------

    /// Table index for a task id (ids are stream positions; lookups
    /// subtract the retired-prefix base).
    fn task_ix(&self, tid: TaskId) -> usize {
        (tid.0 - self.task_base) as usize
    }

    /// Table index for an assignment id (see [`Self::task_ix`]).
    fn assign_ix(&self, aid: AssignmentId) -> usize {
        (aid.0 - self.assignment_base) as usize
    }

    /// The assignment for `aid` if it is still live; `None` for stale
    /// ids. An id can be stale two ways — the assignment was terminated
    /// or completed earlier, or its state was dropped by
    /// [`Self::retire_completed`] — and retired assignments are all dead,
    /// so both collapse into the same early return for queued
    /// `AssignmentDone`/`Walkout` events.
    fn live_assignment(&self, aid: AssignmentId) -> Option<Assignment> {
        if aid.0 < self.assignment_base {
            return None;
        }
        let a = self.assignments[(aid.0 - self.assignment_base) as usize];
        a.is_live().then_some(a)
    }

    /// Task records logged so far and not yet retired, in completion
    /// order. Streaming checkpoints fold the suffix that appeared since
    /// the previous boundary.
    pub fn task_records(&self) -> &[TaskRecord] {
        &self.task_records
    }

    /// Assignment records logged so far and not yet retired.
    pub fn assignment_records(&self) -> &[AssignmentRecord] {
        &self.assignment_records
    }

    /// Per-batch statistics logged so far and not yet retired.
    pub fn batch_stats(&self) -> &[BatchStats] {
        &self.batch_stats
    }

    /// Snapshot of the cumulative cost ledger (never retired).
    pub fn cost_so_far(&self) -> CostLedger {
        *self.platform.ledger()
    }

    /// Cumulative worker-lifecycle counters (never retired).
    pub fn lifecycle_counts(&self) -> LifecycleCounts {
        LifecycleCounts {
            recruited: self.platform.workers_recruited(),
            evicted: self.maintainer.evictions,
            departed: self.workers_departed,
            reserve_expired: self.reserve_expired,
            stale_retired: self.stale_retired,
        }
    }

    /// Streaming observability probe: `(events recorded, trace
    /// fingerprint over every event so far)`. `None` when obs is
    /// disabled. The fingerprint matches what
    /// [`Runner::finish`] would report at this instant, so streamed
    /// checkpoints can pin the trace without draining the recorder.
    pub fn obs_probe(&self) -> Option<(u64, u64)> {
        self.obs.as_ref().map(|obs| {
            let fp = clamshell_obs::trace::fingerprint_events(obs.recorder.iter());
            (obs.recorder.recorded(), fp)
        })
    }

    /// Retire all completed-task state, keeping streamed-run memory
    /// bounded: drains the report rows accumulated since the last
    /// retirement, clears the task/assignment tables (capacity is kept,
    /// so steady-state batches stop allocating), and bumps the id bases.
    ///
    /// Only callable at a batch boundary, when every admitted task has
    /// completed — which also means every assignment is dead
    /// ([`Runner::run_batch`] terminates leftover replicas at task
    /// completion). Cumulative scalars (cost ledger, lifecycle counters,
    /// run start/last-completion) are never retired, so
    /// [`Runner::finish`] still reports them correctly; only the row
    /// vectors come back empty in retire mode.
    pub fn retire_completed(&mut self) -> RetiredRows {
        assert!(
            self.tasks.iter().all(|t| t.completed_at.is_some()),
            "retire_completed is a batch-boundary operation: every admitted task must be complete"
        );
        debug_assert!(
            self.assignments.iter().all(|a| !a.is_live()),
            "completed batches leave no live assignments"
        );
        self.task_base += self.tasks.len() as u32;
        self.assignment_base += self.assignments.len() as u32;
        self.tasks.clear();
        self.assignments.clear();
        self.batch_tasks.clear();
        // Every LabelSpan handle lives in the task table just cleared, so
        // the arena holds no reachable spans; clearing it (capacity kept)
        // is what makes streamed-run label memory bounded too.
        self.label_arena.clear();
        RetiredRows {
            tasks: std::mem::take(&mut self.task_records),
            assignments: std::mem::take(&mut self.assignment_records),
            batches: std::mem::take(&mut self.batch_stats),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        if let Some(obs) = &mut self.obs {
            // Queue-depth sample per handled event, and the outage-resume
            // marker: the first event at/after the recorded recovery
            // instant closes the outage window in the trace.
            obs.note_queue_depth(self.queue.len() as u64);
            if let Some(resume) = self.obs_outage_resume {
                if self.queue.now() >= resume {
                    self.obs_outage_resume = None;
                    obs.record(self.queue.now(), TraceKind::OutageResume);
                }
            }
        }
        // Outage hook: events that model a *platform interaction* — an
        // answer submission or a recruit admission — cannot happen while
        // the platform is down; they re-enter the queue at the recovery
        // instant. Purely worker-side events (walkouts, patience checks,
        // dialog clicks) are unaffected. Deferred events carry fresh
        // sequence numbers in pop order, so FIFO ties stay deterministic.
        if let Some(sched) = &mut self.outage {
            if matches!(ev, Event::AssignmentDone(_) | Event::WorkerReady) {
                if let Some(recovery) = sched.defer(self.queue.now()) {
                    if let Some(obs) = &mut self.obs {
                        obs.record(
                            self.queue.now(),
                            TraceKind::OutageDefer { resume_ms: recovery.as_millis() },
                        );
                        let resume = self.obs_outage_resume.map_or(recovery, |r| r.max(recovery));
                        self.obs_outage_resume = Some(resume);
                    }
                    // Pool generations: the first deferral into each
                    // outage window bumps the generation — an O(1)
                    // counter increment, never a pool scan. Members from
                    // older generations are retired lazily at their next
                    // checkout (see `dispatch_worker`).
                    if self.cfg.pool.generations && recovery > self.last_outage_end {
                        self.last_outage_end = recovery;
                        self.pool.bump_generation();
                    }
                    self.queue.schedule(recovery, ev);
                    return;
                }
            }
        }
        match ev {
            Event::WorkerReady => self.on_worker_ready(),
            Event::AssignmentDone(aid) => self.on_assignment_done(aid),
            Event::WorkerFreed(w) => self.on_worker_freed(w),
            Event::Abandon(w, epoch) => self.on_abandon(w, epoch),
            Event::Walkout(aid) => self.on_walkout(aid),
            Event::ReserveTimeout(w) => self.on_reserve_timeout(w),
            Event::Nop => {}
        }
    }

    /// Advance the simulated clock by `dur`, processing any events that
    /// fall inside the window (worker arrivals, abandonments). Used by the
    /// learning loop to model *blocking* decision latency: with
    /// synchronous retraining, the next batch cannot start until the
    /// learner finishes (§5.3).
    pub fn advance(&mut self, dur: SimDuration) {
        let target = self.now() + dur;
        self.queue.schedule(target, Event::Nop);
        while self.now() < target {
            let Some((_, ev)) = self.queue.pop() else {
                break;
            };
            self.handle(ev);
        }
    }

    fn on_worker_ready(&mut self) {
        self.recruits_in_flight = self.recruits_in_flight.saturating_sub(1);
        let w = self.platform.worker_arrives();
        debug_assert_eq!(w.0 as usize, self.seats.len(), "worker ids are dense");
        self.seats.push(Seat { idle: false, abandon_epoch: 0, patience: SimDuration::ZERO });
        let now = self.now();
        // Arrivals fill the pool to its replenishment floor; beyond that
        // they wait in the reserve (and may be promoted by a demand
        // surge). Without a `min_size` the floor is the capacity, which
        // is the historical vacancy check.
        if self.pool.len() < self.pool.fill_target() {
            self.join_pool(w);
        } else {
            self.reserve.insert(w, now);
            if let Some((timeout, rng)) = &mut self.pool_idle {
                // Jitter each deadline ±10% from the dedicated stream so
                // simultaneous arrivals don't expire in lockstep.
                let jittered = timeout.as_secs_f64() * rng.range_f64(0.9, 1.1);
                let deadline = now + SimDuration::from_secs_f64(jittered);
                self.queue.schedule(deadline, Event::ReserveTimeout(w));
            }
        }
    }

    /// Release a reserve worker whose idle timeout elapsed. Stale checks
    /// (the worker was promoted into the pool meanwhile) are no-ops:
    /// promotion removes them from the reserve, and workers never
    /// re-enter it, so membership is the liveness test.
    fn on_reserve_timeout(&mut self, w: WorkerId) {
        let Some(since) = self.reserve.remove(&w) else {
            return;
        };
        let now = self.now();
        self.platform.pay_wait(now.since(since));
        self.reserve_expired += 1;
        if let Some(obs) = &mut self.obs {
            obs.record(now, TraceKind::ReserveTimeout { worker: w.0 });
        }
    }

    /// Promote the longest-waiting reserve worker (the lowest id, since
    /// reserve order is arrival order) into the pool, settling the wait
    /// they were paid off-pool. `false` when the reserve is empty.
    fn promote_reserve(&mut self) -> bool {
        let Some((w, since)) = self.reserve.pop_first() else {
            return false;
        };
        self.platform.pay_wait(self.now().since(since));
        self.join_pool(w);
        true
    }

    fn join_pool(&mut self, w: WorkerId) {
        let now = self.now();
        let joined = self.pool.join(w, now);
        debug_assert!(joined, "join_pool on full pool");
        if let Some(obs) = &mut self.obs {
            obs.record(now, TraceKind::PoolJoin { worker: w.0, occupancy: self.pool.len() as u64 });
        }
        self.seats[w.0 as usize].patience = self.platform.sample_patience(w);
        self.dispatch_worker(w);
    }

    fn on_worker_freed(&mut self, w: WorkerId) {
        if self.pool.contains(w) {
            self.dispatch_worker(w);
        }
    }

    /// Patience check (scheduled only when `cfg.churn` is on).
    fn on_abandon(&mut self, w: WorkerId, epoch: u32) {
        let seat = self.seats[w.0 as usize];
        // A stale check (the worker got work since), or the worker
        // already left the pool.
        if seat.abandon_epoch != epoch || !seat.idle {
            return;
        }
        // The worker walks away from the retainer task.
        self.leave_pool(w, self.now());
        self.refill_vacancy();
    }

    /// The one pool-exit path: clear the idle flag, free the slot, pay
    /// the wait owed since the member last became idle (none while
    /// working) and record `PoolLeave` with the post-departure occupancy.
    /// A no-op for a worker who is not a member.
    fn leave_pool(&mut self, w: WorkerId, now: SimTime) {
        self.seats[w.0 as usize].idle = false;
        if let Some(wait) = self.pool.leave(w, now) {
            self.platform.pay_wait(wait);
            if let Some(obs) = &mut self.obs {
                obs.record(
                    now,
                    TraceKind::PoolLeave { worker: w.0, occupancy: self.pool.len() as u64 },
                );
            }
        }
    }

    /// Point every idle member at new work, in the configured checkout
    /// order (FIFO = id order, the historical behavior, so the default
    /// reorder is a no-op). Dispatch clears idle flags, so the idle
    /// members are snapshotted into a reused scratch buffer first. The
    /// scan walks the pool, not every worker ever recruited.
    fn kick_idle(&mut self) {
        let mut kick = std::mem::take(&mut self.kick_scratch);
        kick.clear();
        kick.extend(self.idle_members());
        self.pool.order_checkouts(&mut kick);
        for &w in &kick {
            self.dispatch_worker(w);
        }
        self.kick_scratch = kick;
    }

    /// Idle pool members, in `WorkerId` order.
    fn idle_members(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.pool.members().map(|(w, _)| w).filter(|w| self.seats[w.0 as usize].idle)
    }

    /// Adversity churn: the worker walks out mid-assignment. No answer is
    /// submitted and no work payment is due (unlike a requester-side
    /// termination, the worker forfeits by leaving); the retainer slot
    /// empties and re-recruitment starts immediately. The maintainer
    /// drops the departed worker's sample and counts the walkout against
    /// the reserve budget.
    fn on_walkout(&mut self, aid: AssignmentId) {
        let Some(a) = self.live_assignment(aid) else {
            return; // terminated (straggler cap / completion) before walking
        };
        let now = self.now();
        let w = a.worker;
        let aix = self.assign_ix(aid);
        self.assignments[aix].terminated = Some(now);
        let tix = self.task_ix(a.task);
        self.tasks[tix].active.retain(|&x| x != aid);
        self.assignment_records.push(AssignmentRecord {
            task: a.task.0,
            batch: self.tasks[tix].batch,
            worker: w,
            start: a.start,
            end: now,
            terminated: true,
        });
        // The worker is gone for good: free the slot (no wait is owed
        // while working). Workers never rejoin, so their seat goes inert.
        self.leave_pool(w, now);
        self.maintainer.note_walkout(w);
        self.workers_departed += 1;
        if let Some(obs) = &mut self.obs {
            obs.record(now, TraceKind::Walkout { worker: w.0, task: a.task.0, assignment: aid.0 });
        }
        self.refill_vacancy();
        // The abandoned task lost coverage: point idle workers at it.
        self.kick_idle();
    }

    fn on_assignment_done(&mut self, aid: AssignmentId) {
        let Some(a) = self.live_assignment(aid) else {
            return; // was terminated earlier (or retired); stale event
        };
        let now = self.now();
        let tid = a.task;
        let w = a.worker;
        let tix = self.task_ix(tid);
        let ng = self.tasks[tix].spec.ng();

        // Mark complete, detach from the task.
        let aix = self.assign_ix(aid);
        self.assignments[aix].completed = Some(now);
        self.tasks[tix].active.retain(|&x| x != aid);

        // Produce the answer. The truths slice borrows straight out of the
        // task table (disjoint from `self.platform` and the arena), so no
        // per-assignment clone of the spec is needed — and the labels are
        // appended to the shared arena, so no per-assignment vector either.
        let start = self.label_arena.len() as u32;
        self.platform.sample_labels_into(
            w,
            &self.tasks[tix].spec.truths,
            self.cfg.n_classes,
            &mut self.label_arena,
        );
        let labels = LabelSpan { start, len: self.label_arena.len() as u32 - start };
        let age_before = self.pool.age(w);
        let span = now.since(a.start);
        self.tasks[tix].responses.push(TaskResponse {
            worker: w,
            labels,
            at: now,
            latency: span,
            worker_age: age_before,
        });

        // Pay and account.
        self.platform.pay_records(ng as u64);
        if self.pool.contains(w) {
            self.pool.finish_work(w, now, true);
        }
        let stats = self.maintainer.stats_mut(w);
        stats.record_completion(span.as_secs_f64(), ng);

        self.assignment_records.push(AssignmentRecord {
            task: tid.0,
            batch: self.tasks[tix].batch,
            worker: w,
            start: a.start,
            end: now,
            terminated: false,
        });
        if let Some(obs) = &mut self.obs {
            obs.record(
                now,
                TraceKind::AssignmentDone {
                    worker: w.0,
                    task: tid.0,
                    assignment: aid.0,
                    span_ms: span.as_millis(),
                },
            );
        }

        // Quorum check.
        let responses = self.tasks[tix].responses.len();
        if responses >= self.cfg.quorum as usize {
            self.complete_task(tid, w);
        } else {
            self.enforce_cap(tid, w);
        }

        // The worker immediately looks for new work.
        self.dispatch_worker(w);
    }

    /// Aggregate the final labels, terminate leftover replicas, and log
    /// the task record.
    fn complete_task(&mut self, tid: TaskId, finisher: WorkerId) {
        let now = self.now();
        // Majority vote per record across the quorum of responses, built
        // in a reused vote buffer (one ballot allocation total, not one
        // per record per task).
        let mut votes = std::mem::take(&mut self.votes_scratch);
        let mut finals = std::mem::take(&mut self.finals_scratch);
        finals.clear();
        let tix = self.task_ix(tid);
        let task = &self.tasks[tix];
        let ng = task.spec.ng() as usize;
        for rec in 0..ng {
            votes.clear();
            votes.extend(task.responses.iter().map(|r| Vote {
                worker: r.worker.0,
                label: r.labels.slice(&self.label_arena)[rec],
            }));
            // clamshell-lint: allow(D006) -- a task only completes after >= 1 response, so the ballot is never empty
            finals.push(majority_vote(&votes).expect("complete task has responses"));
        }
        self.votes_scratch = votes;
        let task = &self.tasks[tix];
        // Label accuracy against the simulator's ground truth (the
        // adversity experiments report the delta vs the benign baseline).
        let correct = finals.iter().zip(&task.spec.truths).filter(|(a, b)| a == b).count() as u32;
        // The winner's scalars are all the record needs — don't clone the
        // whole first response (its labels vector in particular).
        let first = &task.responses[0];
        let (winner, winner_span, winner_age) = (first.worker, first.latency, first.worker_age);
        let batch = task.batch;
        let created = task.created;

        // Quality signal for maintenance (§4.2 Extensions): with a vote
        // quorum, each response's agreement with the consensus is
        // per-worker quality evidence. The task table and the maintainer
        // are disjoint fields, so this streams without a staging vector.
        if task.responses.len() >= 2 {
            let maintainer = &mut self.maintainer;
            let arena = &self.label_arena;
            for r in &task.responses {
                let matched =
                    r.labels.slice(arena).iter().zip(&finals).filter(|(a, b)| a == b).count()
                        as u64;
                maintainer.stats_mut(r.worker).record_quality(matched, finals.len() as u64);
            }
        }

        // The staged finals move into the arena (one append to shared
        // storage, not a per-task vector) and the scratch goes back for
        // the next completion.
        let finals_span =
            LabelSpan { start: self.label_arena.len() as u32, len: finals.len() as u32 };
        self.label_arena.extend_from_slice(&finals);
        self.finals_scratch = finals;

        let task = &mut self.tasks[tix];
        task.completed_at = Some(now);
        task.final_labels = Some(finals_span);
        // Detach the leftover replicas by moving the vector out (no
        // clone); hand its capacity back once they're terminated.
        let mut leftovers = std::mem::take(&mut task.active);

        for &aid in &leftovers {
            self.terminate_assignment(aid, finisher);
        }
        leftovers.clear();
        self.tasks[tix].active = leftovers;

        self.task_records.push(TaskRecord {
            task: tid.0,
            batch,
            ng: self.tasks[tix].spec.ng(),
            created,
            completed: now,
            winner,
            winner_span,
            winner_age,
            correct,
        });
    }

    /// After a partial answer (quorum not yet met), shrink the task's
    /// concurrency to the new cap by terminating the longest-running
    /// (straggling) replicas.
    fn enforce_cap(&mut self, tid: TaskId, finisher: WorkerId) {
        let tix = self.task_ix(tid);
        let remaining = self.cfg.quorum.saturating_sub(self.tasks[tix].responses.len() as u32);
        let cap = self.concurrency_cap(remaining);
        loop {
            let task = &self.tasks[tix];
            if task.active.len() <= cap {
                break;
            }
            // Longest-running live replica is the straggler to cut.
            let oldest = task
                .active
                .iter()
                .copied()
                .min_by_key(|&a| (self.assignments[(a.0 - self.assignment_base) as usize].start, a))
                // clamshell-lint: allow(D006) -- guarded above: this branch only runs when the task still has live replicas
                .expect("non-empty active set");
            self.tasks[tix].active.retain(|&x| x != oldest);
            self.terminate_assignment(oldest, finisher);
        }
    }

    /// Kill a live assignment (straggler replica or eviction), paying the
    /// worker for partial work and freeing them after the dialog overhead.
    fn terminate_assignment(&mut self, aid: AssignmentId, caused_by: WorkerId) {
        let now = self.now();
        let aix = self.assign_ix(aid);
        let a = self.assignments[aix];
        debug_assert!(a.is_live(), "terminating a dead assignment");
        self.assignments[aix].terminated = Some(now);
        let atix = self.task_ix(a.task);
        let ng = self.tasks[atix].spec.ng();
        self.platform.pay_terminated(ng as u64);
        if self.pool.contains(a.worker) {
            self.pool.finish_work(a.worker, now, false);
        }
        // TermEst evidence: the terminator's current empirical mean.
        let cause_mean = self
            .maintainer
            .stats(caused_by)
            .filter(|s| s.completed.count() > 0)
            .map(|s| s.completed.mean());
        self.maintainer.stats_mut(a.worker).record_termination(cause_mean);

        self.assignment_records.push(AssignmentRecord {
            task: a.task.0,
            batch: self.tasks[atix].batch,
            worker: a.worker,
            start: a.start,
            end: now,
            terminated: true,
        });

        // The worker clicks through the termination dialog, then is free.
        self.queue
            .schedule(now + self.cfg.platform.termination_overhead, Event::WorkerFreed(a.worker));
    }

    // ------------------------------------------------------------------
    // Dispatch (Scheduler + Mitigator)
    // ------------------------------------------------------------------

    /// Concurrent-assignment cap for a task still needing `remaining`
    /// answers (§4.1 "Working with Quality Control").
    fn concurrency_cap(&self, remaining: u32) -> usize {
        match &self.cfg.straggler {
            None => remaining as usize,
            Some(sm) => match sm.qc_mode {
                QcMode::Naive => remaining as usize * 2,
                QcMode::Decoupled => {
                    if self.cfg.quorum == 1 {
                        match sm.max_extra {
                            Some(extra) => 1 + extra,
                            None => usize::MAX,
                        }
                    } else {
                        remaining as usize + 1
                    }
                }
            },
        }
    }

    /// Route an idle worker: unassigned (under-quorum) tasks first, then —
    /// with straggler mitigation — duplicate an active task. If nothing is
    /// available the worker waits (and may eventually abandon).
    fn dispatch_worker(&mut self, w: WorkerId) {
        if !self.pool.contains(w) {
            return;
        }
        // Lazy generation-based retirement (connection-pool style): a
        // member who joined before the last blackout is replaced at
        // checkout time instead of being scanned out during the outage.
        if self.pool.is_stale(w) {
            self.retire_stale(w);
            return;
        }
        self.seats[w.0 as usize].idle = false;

        // 1. Must-fill: tasks with fewer live assignments than needed
        //    votes, in task order.
        let mut pick: Option<TaskId> = None;
        for &tid in &self.batch_tasks {
            let task = &self.tasks[(tid.0 - self.task_base) as usize];
            if task.completed_at.is_some() {
                continue;
            }
            let remaining = self.cfg.quorum.saturating_sub(task.responses.len() as u32) as usize;
            if task.active.len() < remaining
                && !task.has_worker(w, &self.assignments, self.assignment_base)
            {
                pick = Some(tid);
                break;
            }
        }

        // 2. Mitigation: duplicate an active task. The eligible set is
        //    rebuilt in a reused scratch vector — this runs on every
        //    dispatch once a batch's tail is all stragglers.
        if pick.is_none() {
            if let Some(sm) = self.cfg.straggler {
                let mut eligible = std::mem::take(&mut self.eligible_scratch);
                eligible.clear();
                eligible.extend(self.batch_tasks.iter().copied().filter(|&tid| {
                    let task = &self.tasks[(tid.0 - self.task_base) as usize];
                    if task.completed_at.is_some() || task.active.is_empty() {
                        return false;
                    }
                    let remaining = self.cfg.quorum.saturating_sub(task.responses.len() as u32);
                    task.active.len() < self.concurrency_cap(remaining)
                        && !task.has_worker(w, &self.assignments, self.assignment_base)
                }));
                let view = StateView {
                    tasks: &self.tasks,
                    assignments: &self.assignments,
                    task_base: self.task_base,
                    assignment_base: self.assignment_base,
                };
                pick = route(sm.routing, &eligible, &view, &mut self.rng);
                self.eligible_scratch = eligible;
            }
        }

        match pick {
            Some(tid) => self.assign(w, tid),
            None => {
                // Nothing to do: the worker waits; maybe abandons later.
                let seat = &mut self.seats[w.0 as usize];
                seat.idle = true;
                if self.cfg.churn {
                    let at = self.queue.now() + seat.patience;
                    self.queue.schedule(at, Event::Abandon(w, seat.abandon_epoch));
                }
            }
        }
    }

    /// Retire a stale (pre-blackout generation) member at checkout:
    /// settle their outstanding wait, free the slot, and backfill from
    /// the reserve or recruitment.
    fn retire_stale(&mut self, w: WorkerId) {
        let now = self.now();
        self.leave_pool(w, now);
        self.stale_retired += 1;
        if let Some(obs) = &mut self.obs {
            obs.record(now, TraceKind::StaleRetired { worker: w.0 });
        }
        self.refill_vacancy();
    }

    fn assign(&mut self, w: WorkerId, tid: TaskId) {
        let now = self.now();
        // Invalidate pending abandon checks.
        self.seats[w.0 as usize].abandon_epoch += 1;
        let waited = self.pool.start_work(w, now);
        self.platform.pay_wait(waited);
        if let Some(obs) = &mut self.obs {
            obs.record(now, TraceKind::Checkout { worker: w.0, waited_ms: waited.as_millis() });
        }

        let tix = self.task_ix(tid);
        let ng = self.tasks[tix].spec.ng();
        let dur = self.platform.sample_task_duration(w, ng);
        let aid = AssignmentId(self.assignment_base + self.assignments.len() as u32);
        self.assignments.push(Assignment {
            id: aid,
            task: tid,
            worker: w,
            start: now,
            planned_end: now + dur,
            terminated: None,
            completed: None,
        });
        self.tasks[tix].active.push(aid);
        self.maintainer.stats_mut(w).started += 1;
        if let Some(obs) = &mut self.obs {
            obs.record(now, TraceKind::Dispatch { worker: w.0, task: tid.0, assignment: aid.0 });
        }
        // Churn fault: this assignment may end in a walkout instead of an
        // answer. Decided here, per assignment, from the dedicated churn
        // stream (two draws per affected assignment; zero impact on any
        // benign stream).
        let walkout_after = match &mut self.churn_fault {
            Some((churn, rng)) => {
                if rng.bernoulli(churn.walkout_prob) {
                    let frac = rng.range_f64(churn.min_frac, churn.max_frac);
                    Some(SimDuration::from_secs_f64(dur.as_secs_f64() * frac))
                } else {
                    None
                }
            }
            None => None,
        };
        match walkout_after {
            Some(after) => self.queue.schedule(now + after, Event::Walkout(aid)),
            None => self.queue.schedule(now + dur, Event::AssignmentDone(aid)),
        }
    }

    fn batch_complete(&self) -> bool {
        self.batch_tasks
            .iter()
            .all(|&tid| self.tasks[(tid.0 - self.task_base) as usize].completed_at.is_some())
    }

    // ------------------------------------------------------------------
    // Maintenance & recruitment
    // ------------------------------------------------------------------

    /// Make sure enough recruitments are in flight to (eventually) keep
    /// the pool at its replenishment floor and, under maintenance, the
    /// reserve at its target — the background-replenishment half of the
    /// pool lifecycle.
    fn ensure_recruitment(&mut self) {
        let reserve_target = self.cfg.maintenance.map(|m| m.reserve_target).unwrap_or(0);
        let want = self.pool.fill_target() + reserve_target;
        let have = self.pool.len() + self.reserve.len() + self.recruits_in_flight;
        for _ in have..want {
            let delay = self.platform.start_recruitment();
            self.recruits_in_flight += 1;
            self.queue.schedule(self.now() + delay, Event::WorkerReady);
        }
    }

    /// Refill the pool to its floor from the reserve, or start
    /// recruiting.
    fn refill_vacancy(&mut self) {
        while self.pool.len() < self.pool.fill_target() && self.promote_reserve() {}
        self.ensure_recruitment();
    }

    /// With a `min_size` floor below capacity, promote reserve workers at
    /// a batch start when the incoming demand exceeds the idle members on
    /// hand — the pool surges toward capacity and drains back to the
    /// floor as members churn out. A no-op (and zero extra draws or
    /// events) when the floor equals the capacity.
    fn surge_promote(&mut self) {
        if self.pool.fill_target() >= self.pool.capacity() {
            return;
        }
        let mut demand = 0usize;
        for &tid in &self.batch_tasks {
            let task = &self.tasks[(tid.0 - self.task_base) as usize];
            if task.completed_at.is_some() {
                continue;
            }
            let remaining = self.cfg.quorum.saturating_sub(task.responses.len() as u32) as usize;
            demand += remaining.saturating_sub(task.active.len());
        }
        let mut need = demand.saturating_sub(self.idle_members().count());
        while need > 0 && self.pool.vacancies() > 0 && self.promote_reserve() {
            need -= 1;
        }
    }

    /// Batch-boundary maintenance: evict flagged workers (replacement
    /// permitting) and top the reserve back up. Only `Waiting` members
    /// are eviction candidates: evicting a `Working` member would orphan
    /// their live assignment — the answer would still arrive, but against
    /// a vanished member record, silently skipping the age/wait
    /// accounting in `finish_work`. Reachable whenever an assignment
    /// (e.g. a straggler replica) spans the batch boundary.
    fn maintenance_step(&mut self) {
        let Some(mcfg) = self.cfg.maintenance else {
            self.ensure_recruitment();
            return;
        };
        let members: Vec<WorkerId> = self.pool.waiting();
        let flagged = self.maintainer.flag_evictions(members.into_iter(), &mcfg);
        for w in flagged {
            // Only evict when a trained replacement is ready — maintenance
            // never shrinks the pool (§4.2).
            if self.reserve.is_empty() {
                break;
            }
            let now = self.now();
            self.leave_pool(w, now);
            self.maintainer.note_eviction();
            self.evicted_this_boundary += 1;
            if let Some(obs) = &mut self.obs {
                obs.record(now, TraceKind::MaintenanceEvict { worker: w.0 });
            }
            self.promote_reserve();
        }
        self.refill_vacancy();
    }

    fn record_batch_stats(&mut self, index: usize, start: SimTime, end: SimTime) {
        let mut lat = OnlineStats::new();
        let mut mpl = OnlineStats::new();
        for &tid in &self.batch_tasks {
            let task = &self.tasks[(tid.0 - self.task_base) as usize];
            if let Some(done) = task.completed_at {
                lat.push(done.since(task.created).as_secs_f64());
            }
            for r in &task.responses {
                mpl.push(r.latency.as_secs_f64());
            }
        }
        self.batch_stats.push(BatchStats {
            index,
            start,
            end,
            tasks: self.batch_tasks.len(),
            task_latency_std: lat.std(),
            task_latency_mean: lat.mean(),
            mpl: mpl.mean(),
            evicted: self.evicted_this_boundary,
        });
    }
}

/// Deterministic chunk-size source shared by [`run_batched`] and the
/// streaming engine (`clamshell-stream`).
///
/// Yields the caller's fixed batch size, unless a
/// [`BurstFault`] is configured — then
/// burst sizes are drawn uniformly from `[min_batch, max_batch]` on the
/// dedicated fault stream, one draw per chunk. Centralizing the draw is
/// load-bearing for the streamed/batched equivalence contract: both
/// entry points consume the identical size sequence, so batch boundaries
/// (and every downstream scheduling decision) coincide bit for bit.
pub struct BatchSizer {
    fixed: usize,
    bursts: Option<(BurstFault, Rng)>,
}

impl BatchSizer {
    /// Build from the run configuration and the caller's batch size.
    /// The fault stream is stateless, so construction order relative to
    /// [`Runner::new`] cannot matter.
    pub fn new(cfg: &RunConfig, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        let bursts = cfg
            .adversity
            .as_ref()
            .and_then(|a| a.bursts)
            .map(|b| (b, fault_stream(cfg.seed, streams::BURSTS)));
        BatchSizer { fixed: batch_size, bursts }
    }

    /// Size of the next chunk to admit (always positive).
    pub fn next_size(&mut self) -> usize {
        match &mut self.bursts {
            Some((b, rng)) => b.min_batch + rng.index(b.max_batch - b.min_batch + 1),
            None => self.fixed,
        }
    }
}

/// Convenience: run `specs` split into `batch_size` chunks end-to-end.
///
/// With a [`BurstFault`] configured, the
/// fixed `batch_size` is replaced by burst sizes drawn uniformly from
/// `[min_batch, max_batch]` on a dedicated fault stream (see
/// [`BatchSizer`]) — the task stream itself (content and order) is
/// untouched.
pub fn run_batched(
    cfg: RunConfig,
    population: Population,
    specs: Vec<TaskSpec>,
    batch_size: usize,
) -> RunReport {
    let mut sizer = BatchSizer::new(&cfg, batch_size);
    let mut runner = Runner::new(cfg, population);
    runner.reserve_tasks(specs.len());
    runner.warm_up();
    let obs = runner.obs_enabled();
    let mut iter = specs.into_iter().peekable();
    let mut admit_all = || {
        while iter.peek().is_some() {
            let chunk: Vec<TaskSpec> = iter.by_ref().take(sizer.next_size()).collect();
            runner.run_batch(chunk);
        }
    };
    if obs {
        // Instrumented runs dump the flight recorder before re-raising a
        // batch panic, so the event tail survives invariant failures. The
        // disabled path stays free of the catch-unwind machinery.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(admit_all));
        if let Err(payload) = outcome {
            runner.dump_obs();
            std::panic::resume_unwind(payload);
        }
    } else {
        admit_all();
    }
    runner.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaintenanceConfig;

    fn specs(n: usize, ng: usize) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; ng])).collect()
    }

    fn base_cfg(seed: u64) -> RunConfig {
        RunConfig { pool_size: 8, ng: 5, seed, ..Default::default() }
    }

    fn pop() -> Population {
        Population::mturk_live()
    }

    #[test]
    fn warm_up_fills_pool() {
        let mut r = Runner::new(base_cfg(1), pop());
        r.warm_up();
        assert_eq!(r.pool().len(), 8);
    }

    #[test]
    fn single_batch_completes_all_tasks() {
        let report = run_batched(base_cfg(2), pop(), specs(8, 5), 8);
        assert_eq!(report.tasks.len(), 8);
        assert_eq!(report.labels_produced(), 40);
        assert_eq!(report.batches.len(), 1);
        assert!(report.total_secs() > 0.0);
    }

    #[test]
    fn multi_batch_run() {
        let report = run_batched(base_cfg(3), pop(), specs(24, 5), 8);
        assert_eq!(report.batches.len(), 3);
        assert_eq!(report.tasks.len(), 24);
        // Batches are sequential in time.
        for w in report.batches.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn deterministic_reports() {
        let a = run_batched(base_cfg(7), pop(), specs(16, 5), 8);
        let b = run_batched(base_cfg(7), pop(), specs(16, 5), 8);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn seeds_change_outcomes() {
        let a = run_batched(base_cfg(8), pop(), specs(16, 5), 8);
        let b = run_batched(base_cfg(9), pop(), specs(16, 5), 8);
        assert_ne!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn straggler_mitigation_creates_terminations() {
        let cfg = base_cfg(4).with_straggler();
        let report = run_batched(cfg, pop(), specs(16, 5), 8);
        assert!(
            report.assignments.iter().any(|a| a.terminated),
            "SM with R=1 should terminate some replicas"
        );
        // Every task still completes exactly once.
        assert_eq!(report.tasks.len(), 16);
    }

    #[test]
    fn no_mitigation_no_terminations() {
        let report = run_batched(base_cfg(5), pop(), specs(16, 5), 8);
        assert_eq!(report.termination_rate(), 0.0);
    }

    #[test]
    fn quorum_collects_multiple_answers() {
        let cfg = RunConfig { quorum: 3, pool_size: 9, ..base_cfg(6) };
        let mut r = Runner::new(cfg, pop());
        r.warm_up();
        r.run_batch(specs(3, 5));
        for t in r.tasks() {
            assert_eq!(t.responses.len(), 3, "each task needs exactly 3 answers");
            assert!(t.final_labels.is_some());
        }
    }

    #[test]
    fn maintenance_evicts_and_replaces() {
        let cfg = RunConfig {
            maintenance: Some(MaintenanceConfig {
                threshold_per_label_secs: 4.0,
                min_tasks: 1,
                ..MaintenanceConfig::pm8()
            }),
            ..base_cfg(10)
        };
        let report = run_batched(cfg, pop(), specs(64, 5), 8);
        assert!(report.workers_evicted > 0, "aggressive threshold must evict");
        // Pool never shrinks: every eviction had a replacement.
        assert!(report.workers_recruited >= 8 + report.workers_evicted as usize);
    }

    #[test]
    fn mitigation_improves_batch_makespan() {
        // Paired comparison, multiple seeds: SM should reduce mean batch
        // completion time substantially at R=1 on a long-tailed pool.
        let mut with = 0.0;
        let mut without = 0.0;
        for seed in 0..5 {
            let r1 = run_batched(base_cfg(seed).with_straggler(), pop(), specs(30, 5), 10);
            let r2 = run_batched(base_cfg(seed), pop(), specs(30, 5), 10);
            with += r1.batch_makespan_summary().mean;
            without += r2.batch_makespan_summary().mean;
        }
        assert!(without > with * 1.2, "SM should speed batches: with={with} without={without}");
    }

    #[test]
    fn cost_is_positive_and_composed() {
        let report = run_batched(base_cfg(11), pop(), specs(8, 5), 8);
        assert!(report.cost.work_micro > 0);
        assert!(report.cost.recruit_micro > 0);
        assert_eq!(
            report.cost.total_micro(),
            report.cost.work_micro + report.cost.wait_micro + report.cost.recruit_micro
        );
    }

    #[test]
    fn worker_never_duplicates_own_task() {
        let cfg = base_cfg(12).with_straggler();
        let report = run_batched(cfg, pop(), specs(4, 5), 4);
        // Group assignments per task; no worker appears twice.
        let mut seen: std::collections::HashMap<u32, Vec<WorkerId>> = Default::default();
        for a in &report.assignments {
            let entry = seen.entry(a.task).or_default();
            assert!(!entry.contains(&a.worker), "worker {} duplicated task {}", a.worker, a.task);
            entry.push(a.worker);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_truths() {
        let mut r = Runner::new(base_cfg(13), pop());
        r.warm_up();
        r.run_batch(vec![TaskSpec::new(vec![5])]); // n_classes = 2
    }

    // ------------------------------------------------------------------
    // Pool lifecycle & accounting
    // ------------------------------------------------------------------

    use crate::config::{CheckoutStrategy, PoolConfig};
    use clamshell_crowd::MemberState;

    #[test]
    fn drain_settles_all_outstanding_wait_exactly() {
        use clamshell_crowd::payment::usd;
        // Regression for the reserve-settlement accounting: at run drain,
        // total wait pay must equal the mid-run accrual plus a
        // hand-computed settlement for every still-Waiting pool member
        // AND every worker still queued in the maintenance reserve.
        let cfg = RunConfig {
            maintenance: Some(MaintenanceConfig {
                threshold_per_label_secs: 1000.0, // no evictions: isolate settlement
                ..MaintenanceConfig::pm8()
            }),
            ..base_cfg(31)
        };
        let rate = cfg.platform.wait_pay_per_min;
        let mut r = Runner::new(cfg, pop());
        r.warm_up();
        r.run_batch(specs(8, 5));
        // Land the in-flight reserve recruits so the drain has real
        // reserve wait to settle.
        while r.reserve.len() < 3 {
            let Some((_, ev)) = r.queue.pop() else { break };
            r.handle(ev);
        }
        assert!(!r.reserve.is_empty(), "reserve must be non-empty at drain");
        let now = r.now();
        let mut expected = r.platform.ledger().wait_micro;
        for (_, m) in r.pool.members() {
            if let MemberState::Waiting { since } = m.state {
                expected += usd(rate * now.since(since).as_mins_f64());
            }
        }
        for &since in r.reserve.values() {
            expected += usd(rate * now.since(since).as_mins_f64());
        }
        let report = r.finish();
        assert_eq!(report.cost.wait_micro, expected, "wait pay must settle exactly at drain");
    }

    #[test]
    fn maintenance_skips_mid_assignment_members() {
        // Regression: an assignment that spans the batch boundary (e.g. a
        // straggler replica) leaves its member `Working` when maintenance
        // runs; evicting them would orphan the live assignment. Only
        // `Waiting` members are eviction candidates.
        let cfg = RunConfig {
            maintenance: Some(MaintenanceConfig {
                threshold_per_label_secs: 0.001, // flag anyone with evidence
                min_tasks: 1,
                ..MaintenanceConfig::pm8()
            }),
            ..base_cfg(32)
        };
        let mut r = Runner::new(cfg, pop());
        r.warm_up();
        // Land at least one reserve recruit so evictions have a
        // replacement available.
        while r.reserve.is_empty() {
            let (_, ev) = r.queue.pop().expect("recruits in flight");
            r.handle(ev);
        }
        // Damning latency evidence for every member, then put one to work
        // across the boundary.
        let members: Vec<WorkerId> = r.pool.members().map(|(w, _)| w).collect();
        for &w in &members {
            let stats = r.maintainer.stats_mut(w);
            for _ in 0..3 {
                // `started` normally ticks in `assign`; mirror it here so
                // the evidence passes the maintainer's min-tasks gate.
                stats.started += 1;
                stats.record_completion(1_000.0, 5);
            }
        }
        let straggler = members[0];
        r.pool.start_work(straggler, r.now());
        r.maintenance_step();
        assert!(r.pool.contains(straggler), "working member must survive maintenance");
        assert!(matches!(r.pool.member(straggler).unwrap().state, MemberState::Working { .. }));
        assert!(
            r.maintainer.evictions > 0,
            "waiting members with identical evidence are still evicted"
        );
        // The boundary-spanning assignment still lands normally.
        r.pool.finish_work(straggler, r.now(), true);
        assert_eq!(r.pool.age(straggler), 1);
    }

    #[test]
    fn default_pool_config_is_byte_identical_to_explicit_fifo() {
        let explicit = RunConfig {
            pool: PoolConfig {
                min_size: None,
                strategy: CheckoutStrategy::Fifo,
                idle_timeout: None,
                generations: false,
            },
            ..base_cfg(30)
        };
        let a = run_batched(base_cfg(30), pop(), specs(16, 5), 8);
        let b = run_batched(explicit, pop(), specs(16, 5), 8);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        assert_eq!(a.reserve_expired, 0);
        assert_eq!(a.stale_retired, 0);
    }

    #[test]
    fn lifo_checkout_changes_the_schedule_deterministically() {
        let lifo_cfg = || RunConfig {
            pool: PoolConfig { strategy: CheckoutStrategy::Lifo, ..Default::default() },
            ..base_cfg(37)
        };
        let fifo = run_batched(base_cfg(37), pop(), specs(24, 5), 4);
        let lifo_a = run_batched(lifo_cfg(), pop(), specs(24, 5), 4);
        let lifo_b = run_batched(lifo_cfg(), pop(), specs(24, 5), 4);
        assert_eq!(
            serde_json::to_string(&lifo_a).unwrap(),
            serde_json::to_string(&lifo_b).unwrap()
        );
        assert_ne!(
            serde_json::to_string(&fifo).unwrap(),
            serde_json::to_string(&lifo_a).unwrap(),
            "with 8 members and 4-task batches, checkout order must matter"
        );
        assert_eq!(lifo_a.tasks.len(), 24, "every task completes under LIFO too");
    }

    #[test]
    fn reserve_idle_timeout_expires_and_pays() {
        let cfg = || RunConfig {
            maintenance: Some(MaintenanceConfig {
                threshold_per_label_secs: 1000.0,
                ..MaintenanceConfig::pm8()
            }),
            pool: PoolConfig {
                idle_timeout: Some(SimDuration::from_secs(30)),
                ..Default::default()
            },
            ..base_cfg(33)
        };
        // Qualification delays put the reserve recruits well past a short
        // batch run, so advance the clock far enough for them to land in
        // the reserve and for their 30s timeouts to fire.
        let run = || {
            let mut r = Runner::new(cfg(), pop());
            r.warm_up();
            r.run_batch(specs(8, 5));
            r.advance(SimDuration::from_mins(60));
            r.run_batch(specs(8, 5));
            r.finish()
        };
        let report = run();
        assert!(report.reserve_expired > 0, "a 30s timeout must release reserve workers");
        assert_eq!(report.tasks.len(), 16, "releases never block completion");
        let again = run();
        assert_eq!(serde_json::to_string(&report).unwrap(), serde_json::to_string(&again).unwrap());
    }

    #[test]
    fn min_size_floor_fills_below_capacity() {
        let cfg = RunConfig {
            pool: PoolConfig { min_size: Some(4), ..Default::default() },
            ..base_cfg(35)
        };
        let mut r = Runner::new(cfg, pop());
        r.warm_up();
        assert_eq!(r.pool().len(), 4, "warm-up fills to the floor, not capacity");
        r.run_batch(specs(8, 5));
        let report = r.finish();
        assert_eq!(report.tasks.len(), 8);
    }

    #[test]
    fn surge_promotes_reserve_to_cover_demand() {
        let cfg = RunConfig {
            churn: false,
            maintenance: Some(MaintenanceConfig {
                threshold_per_label_secs: 1000.0,
                reserve_target: 6,
                ..MaintenanceConfig::pm8()
            }),
            pool: PoolConfig { min_size: Some(2), ..Default::default() },
            ..base_cfg(36)
        };
        let mut r = Runner::new(cfg, pop());
        r.warm_up();
        assert_eq!(r.pool().len(), 2);
        while r.reserve.len() < 6 {
            let (_, ev) = r.queue.pop().expect("recruits in flight");
            r.handle(ev);
        }
        r.run_batch(specs(8, 5));
        assert!(
            r.pool().len() > 2,
            "an 8-task batch against a 2-member floor must promote reserve workers (len={})",
            r.pool().len()
        );
        assert!(r.pool().len() <= r.pool().capacity());
        let report = r.finish();
        assert_eq!(report.tasks.len(), 8);
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    use crate::config::ObsConfig;

    #[test]
    fn obs_disabled_by_default_and_absent_from_report() {
        let report = run_batched(base_cfg(40), pop(), specs(8, 5), 8);
        assert!(report.obs.is_none(), "default runs carry no obs report");
    }

    #[test]
    fn obs_enabled_does_not_perturb_the_simulation() {
        // The whole zero-overhead contract in one assertion: strip the
        // obs ride-along and the instrumented report is byte-identical
        // to the plain one — same RNG draws, same schedule, same costs.
        let plain = run_batched(base_cfg(41), pop(), specs(16, 5), 8);
        let cfg = RunConfig { obs: ObsConfig::on(), ..base_cfg(41) };
        let mut instrumented = run_batched(cfg, pop(), specs(16, 5), 8);
        let obs = instrumented.obs.take().expect("enabled run must attach obs");
        assert!(!obs.events.is_empty(), "an instrumented run records events");
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&instrumented).unwrap()
        );
    }

    #[test]
    fn obs_trace_is_deterministic_and_fingerprinted() {
        let cfg = || {
            RunConfig { obs: ObsConfig::on(), ..base_cfg(42) }.with_straggler().with_maintenance()
        };
        let a = run_batched(cfg(), pop(), specs(16, 5), 8).obs.unwrap();
        let b = run_batched(cfg(), pop(), specs(16, 5), 8).obs.unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.render_jsonl("unit", 42), b.render_jsonl("unit", 42));
        assert_eq!(
            a.fingerprint,
            clamshell_obs::trace::fingerprint_events(a.events.iter()),
            "committed fingerprint must re-derive from the events"
        );
    }

    #[test]
    fn obs_dispatch_and_done_counts_match_the_ledger() {
        let cfg = RunConfig { obs: ObsConfig::on(), ..base_cfg(43) };
        let report = run_batched(cfg, pop(), specs(16, 5), 8);
        let obs = report.obs.as_ref().unwrap();
        assert_eq!(
            obs.counter("runner.dispatch") as usize,
            report.assignments.len(),
            "every assignment record begins with a dispatch"
        );
        let done: usize = report.assignments.iter().filter(|a| !a.terminated).count();
        assert_eq!(obs.counter("runner.assignment_done") as usize, done);
        // Checkout events (runner-side) and pool checkouts (pool-side)
        // are recorded by independent code paths; they must agree.
        assert_eq!(obs.counter("runner.checkout"), obs.counter("runner.dispatch"));
        assert_eq!(obs.counter("pool.join"), obs.counter("pool.leave"));
    }

    #[test]
    fn obs_small_ring_drops_oldest_but_keeps_counts() {
        let cfg = RunConfig { obs: ObsConfig::with_ring(8), ..base_cfg(44) };
        let report = run_batched(cfg, pop(), specs(16, 5), 8);
        let obs = report.obs.unwrap();
        assert_eq!(obs.events.len(), 8);
        assert!(obs.dropped > 0, "a tiny ring must evict");
        assert_eq!(obs.dropped + obs.events.len() as u64, obs.recorded);
        // Counters are not bounded by the ring.
        assert!(obs.counter("runner.dispatch") > 8);
    }

    // ------------------------------------------------------------------
    // Adversity faults
    // ------------------------------------------------------------------

    use crate::adversity::{AdversityConfig, BurstFault, ChurnFault, OutageFault};

    fn adv_cfg(seed: u64, adversity: AdversityConfig) -> RunConfig {
        base_cfg(seed).with_adversity(adversity)
    }

    #[test]
    fn empty_adversity_is_bit_identical_to_none() {
        let plain = run_batched(base_cfg(20), pop(), specs(16, 5), 8);
        let layered = run_batched(adv_cfg(20, AdversityConfig::NONE), pop(), specs(16, 5), 8);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&layered).unwrap()
        );
    }

    #[test]
    fn churn_departs_workers_but_completes_every_task() {
        let cfg = adv_cfg(
            21,
            AdversityConfig { churn: Some(ChurnFault::default()), ..AdversityConfig::NONE },
        );
        let report = run_batched(cfg, pop(), specs(24, 5), 8);
        assert!(report.workers_departed > 0, "15% walkout rate must fire");
        assert_eq!(report.tasks.len(), 24, "every task still completes");
        // Re-recruitment happened (some replacements may still be
        // in-flight at run end, so only arrivals beyond warm-up that
        // already landed are observable).
        assert!(report.workers_recruited > 8, "walkouts must trigger re-recruitment");
        // Walkouts are logged as terminated assignments with no answer.
        assert!(report.assignments.iter().any(|a| a.terminated));
    }

    #[test]
    fn churn_is_deterministic() {
        let cfg = || {
            adv_cfg(
                22,
                AdversityConfig {
                    churn: Some(ChurnFault { walkout_prob: 0.3, ..Default::default() }),
                    ..AdversityConfig::NONE
                },
            )
        };
        let a = run_batched(cfg(), pop(), specs(16, 5), 8);
        let b = run_batched(cfg(), pop(), specs(16, 5), 8);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn outages_stretch_the_run() {
        let benign = run_batched(base_cfg(23), pop(), specs(24, 5), 8);
        let dark = run_batched(
            adv_cfg(
                23,
                AdversityConfig {
                    outage: Some(OutageFault { mean_uptime_secs: 60.0, mean_outage_secs: 60.0 }),
                    ..AdversityConfig::NONE
                },
            ),
            pop(),
            specs(24, 5),
            8,
        );
        assert_eq!(dark.tasks.len(), 24);
        assert!(
            dark.total_secs() > benign.total_secs(),
            "50% blackout must slow the run: dark={} benign={}",
            dark.total_secs(),
            benign.total_secs()
        );
    }

    #[test]
    fn blackout_generations_retire_stale_members_lazily() {
        let cfg = || RunConfig {
            pool: PoolConfig { generations: true, ..Default::default() },
            ..adv_cfg(
                34,
                AdversityConfig {
                    outage: Some(OutageFault { mean_uptime_secs: 120.0, mean_outage_secs: 45.0 }),
                    ..AdversityConfig::NONE
                },
            )
        };
        let report = run_batched(cfg(), pop(), specs(24, 5), 8);
        assert!(
            report.stale_retired > 0,
            "blackouts must retire pre-outage members at their next checkout"
        );
        assert_eq!(report.tasks.len(), 24, "lazy retirement never blocks completion");
        let again = run_batched(cfg(), pop(), specs(24, 5), 8);
        assert_eq!(serde_json::to_string(&report).unwrap(), serde_json::to_string(&again).unwrap());
        // Generations off: same outage schedule, zero retirements.
        let plain = RunConfig { pool: PoolConfig::default(), ..cfg() };
        let baseline = run_batched(plain, pop(), specs(24, 5), 8);
        assert_eq!(baseline.stale_retired, 0);
    }

    #[test]
    fn bursty_arrivals_reshape_batches_only() {
        let cfg = adv_cfg(
            24,
            AdversityConfig {
                bursts: Some(BurstFault { min_batch: 1, max_batch: 7 }),
                ..AdversityConfig::NONE
            },
        );
        let report = run_batched(cfg, pop(), specs(30, 5), 8);
        assert_eq!(report.tasks.len(), 30, "every task labeled exactly once");
        let sizes: Vec<usize> = report.batches.iter().map(|b| b.tasks).collect();
        assert!(sizes.iter().all(|&s| (1..=7).contains(&s)));
        assert!(sizes.windows(2).any(|w| w[0] != w[1]), "burst sizes vary: {sizes:?}");
    }

    #[test]
    fn composed_faults_run_to_completion_deterministically() {
        let cfg = || {
            adv_cfg(
                25,
                AdversityConfig {
                    archetypes: Some(clamshell_trace::ArchetypeMix::spammers(0.3)),
                    inflation: Some(clamshell_crowd::LatencyInflation {
                        prob: 0.2,
                        mult_median: 6.0,
                        mult_sigma: 0.6,
                    }),
                    churn: Some(ChurnFault::default()),
                    outage: Some(OutageFault::default()),
                    bursts: Some(BurstFault { min_batch: 2, max_batch: 9 }),
                },
            )
            .with_straggler()
            .with_maintenance()
        };
        let a = run_batched(cfg(), pop(), specs(24, 5), 8);
        let b = run_batched(cfg(), pop(), specs(24, 5), 8);
        assert_eq!(a.tasks.len(), 24);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn accuracy_drops_under_adversarial_workers() {
        let benign = run_batched(base_cfg(26), pop(), specs(40, 5), 8);
        let hostile = run_batched(
            adv_cfg(
                26,
                AdversityConfig {
                    archetypes: Some(clamshell_trace::ArchetypeMix::adversarial(0.4)),
                    ..AdversityConfig::NONE
                },
            ),
            pop(),
            specs(40, 5),
            8,
        );
        assert!(
            hostile.accuracy() < benign.accuracy() - 0.05,
            "hostile={} benign={}",
            hostile.accuracy(),
            benign.accuracy()
        );
    }
}
