//! The open-loop streaming service loop.
//!
//! [`run_stream`] drives the same deterministic [`Runner`] that
//! [`run_batched`](clamshell_core::runner::run_batched) uses, ingesting
//! tasks incrementally from an unbounded source. Chunk sizes come from
//! the shared [`BatchSizer`], so batch boundaries — and therefore every
//! scheduling decision — coincide with the batched run over the same
//! spec prefix. Arrival counts come from the open-loop
//! [`ArrivalCounter`] — a constant-memory view of the arrival timeline
//! — and feed only checkpoint reporting; they never gate
//! admission, which is precisely why the equivalence contract holds at
//! any target rate.
//!
//! This file is hot-path library code under the determinism linter's
//! D006 rule: no `unwrap`/`expect` — invariants are `assert!`ed with
//! messages instead.

use crate::checkpoint::{StreamCheckpoint, StreamDigest};
use clamshell_core::metrics::{AssignmentRecord, TaskRecord};
use clamshell_core::runner::{BatchSizer, Runner};
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_core::RunReport;
use clamshell_sim::arrivals::ArrivalCounter;
use clamshell_trace::Population;

/// Service-mode knobs, orthogonal to the scheduling [`RunConfig`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Mean task arrivals per simulated second (open-loop; reporting
    /// only — see [`clamshell_sim::arrivals`]).
    pub rate_per_sec: f64,
    /// Emit a [`StreamCheckpoint`] at the first batch boundary at which
    /// at least this many tasks completed since the previous snapshot.
    pub checkpoint_every: usize,
    /// Retire completed-task state at every batch boundary, keeping
    /// memory bounded by the largest single batch instead of the whole
    /// stream. The final report's row vectors come back empty (the
    /// rows were streamed out through the digest); scalars, checkpoints,
    /// and digests are byte-identical to retained mode.
    pub retire: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { rate_per_sec: 1.0, checkpoint_every: 8, retire: false }
    }
}

/// Everything a streamed run produces.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The final report. With `retire: false` this is byte-identical to
    /// [`run_batched`](clamshell_core::runner::run_batched) over the
    /// same spec prefix; with `retire: true` the row vectors are empty
    /// (retired through the digest) but every scalar still matches.
    pub report: RunReport,
    /// The periodic snapshots, in emission order. The final batch
    /// boundary always emits one, so the sequence is never empty.
    pub checkpoints: Vec<StreamCheckpoint>,
    /// The running digest after every row was folded; equals
    /// [`StreamDigest::of`] of the batched reference report.
    pub digest: StreamDigest,
}

/// Cumulative counters fed by folded report rows (the checkpoint
/// fields that would otherwise require retained row vectors).
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    completed: u64,
    labels: u64,
    labels_correct: u64,
    assignments: u64,
    terminated: u64,
    batches: u64,
}

impl Totals {
    fn task(&mut self, t: &TaskRecord) {
        self.completed += 1;
        self.labels += t.ng as u64;
        self.labels_correct += t.correct as u64;
    }

    fn assignment(&mut self, a: &AssignmentRecord) {
        self.assignments += 1;
        self.terminated += a.terminated as u64;
    }

    fn batch(&mut self) {
        self.batches += 1;
    }
}

/// Label the first `n_tasks` tasks of `source` in streaming service
/// mode.
///
/// Equivalence contract (enforced by the conformance suite in
/// `clamshell-scenarios`): for any `(cfg, population, batch_size)` and
/// any `StreamConfig`, the outcome relates to
/// `run_batched(cfg, population, first_n_specs, batch_size)` as:
///
/// * `retire: false` — `outcome.report` is byte-identical to the
///   batched report (same JSON serialization, same obs fingerprint);
/// * any mode — `outcome.digest` equals `StreamDigest::of(&batched)`,
///   and the checkpoint sequence is identical across retirement modes
///   and thread counts.
///
/// Panics if `source` yields fewer than `n_tasks` specs, or on a
/// non-positive `n_tasks` / `checkpoint_every` / `batch_size` /
/// arrival rate.
pub fn run_stream<I>(
    cfg: RunConfig,
    population: Population,
    source: I,
    n_tasks: usize,
    batch_size: usize,
    stream: &StreamConfig,
) -> StreamOutcome
where
    I: IntoIterator<Item = TaskSpec>,
{
    assert!(n_tasks > 0, "stream must label at least one task");
    assert!(stream.checkpoint_every > 0, "checkpoint interval must be positive");
    let mut arrivals = ArrivalCounter::new(cfg.seed, stream.rate_per_sec);
    let mut sizer = BatchSizer::new(&cfg, batch_size);
    let mut runner = Runner::new(cfg, population);
    if !stream.retire {
        // Retained mode mirrors `run_batched` exactly, including its
        // whole-run table reservation. Retire mode deliberately skips
        // it: bounded memory is the point.
        runner.reserve_tasks(n_tasks);
    }
    runner.warm_up();

    let mut source = source.into_iter();
    let mut digest = StreamDigest::new();
    let mut checkpoints: Vec<StreamCheckpoint> = Vec::new();
    let mut totals = Totals::default();
    // Retained-mode fold cursors over the runner's accumulated rows.
    let (mut tcur, mut acur, mut bcur) = (0usize, 0usize, 0usize);
    let mut admitted = 0usize;
    let mut since_ckpt = 0usize;

    while admitted < n_tasks {
        // Identical chunking to `run_batched`: one sizer draw per
        // chunk, the final chunk truncated by stream exhaustion.
        let want = sizer.next_size().min(n_tasks - admitted);
        let chunk: Vec<TaskSpec> = source.by_ref().take(want).collect();
        assert_eq!(chunk.len(), want, "task source drained before {n_tasks} tasks");
        admitted += want;
        runner.run_batch(chunk);

        // Fold the report rows this batch appended — either by draining
        // them out of the runner (retire mode) or by advancing cursors
        // over its retained vectors. Both orders are per-table append
        // order, so the digests agree.
        if stream.retire {
            let rows = runner.retire_completed();
            since_ckpt += rows.tasks.len();
            for t in &rows.tasks {
                digest.fold_task(t);
                totals.task(t);
            }
            for a in &rows.assignments {
                digest.fold_assignment(a);
                totals.assignment(a);
            }
            for b in &rows.batches {
                digest.fold_batch(b);
                totals.batch();
            }
        } else {
            let tasks = runner.task_records();
            since_ckpt += tasks.len() - tcur;
            for t in &tasks[tcur..] {
                digest.fold_task(t);
                totals.task(t);
            }
            tcur = tasks.len();
            let assigns = runner.assignment_records();
            for a in &assigns[acur..] {
                digest.fold_assignment(a);
                totals.assignment(a);
            }
            acur = assigns.len();
            let batches = runner.batch_stats();
            for b in &batches[bcur..] {
                digest.fold_batch(b);
                totals.batch();
            }
            bcur = batches.len();
        }

        // Snapshot at this boundary if enough tasks completed — and
        // always at the final boundary, so the last checkpoint pins the
        // complete run.
        if since_ckpt >= stream.checkpoint_every || admitted == n_tasks {
            since_ckpt = 0;
            let at = runner.now();
            let arrived = arrivals.arrived_by(at);
            let life = runner.lifecycle_counts();
            let (digest_tasks, digest_assignments, digest_batches) = digest.values();
            let (obs_recorded, obs_fingerprint) = runner.obs_probe().unwrap_or((0, 0));
            checkpoints.push(StreamCheckpoint {
                seq: checkpoints.len() as u64,
                at_ms: at.as_millis(),
                arrived,
                admitted: admitted as u64,
                completed: totals.completed,
                backlog: arrived.saturating_sub(totals.completed),
                batches: totals.batches,
                labels: totals.labels,
                labels_correct: totals.labels_correct,
                assignments: totals.assignments,
                terminated: totals.terminated,
                cost_micro: runner.cost_so_far().total_micro(),
                recruited: life.recruited as u64,
                evicted: life.evicted,
                departed: life.departed,
                digest_tasks,
                digest_assignments,
                digest_batches,
                obs_recorded,
                obs_fingerprint,
            });
        }
    }

    StreamOutcome { report: runner.finish(), checkpoints, digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source;
    use clamshell_core::runner::run_batched;

    fn cfg(seed: u64) -> RunConfig {
        RunConfig { pool_size: 5, ng: 2, seed, ..Default::default() }.with_straggler()
    }

    fn stream_cfg(retire: bool) -> StreamConfig {
        StreamConfig { rate_per_sec: 1.5, checkpoint_every: 4, retire }
    }

    #[test]
    fn retained_report_is_byte_identical_to_batched() {
        let n = 18;
        let batched =
            run_batched(cfg(3), Population::mturk_live(), source::alternating_specs(2, n), 5);
        let streamed = run_stream(
            cfg(3),
            Population::mturk_live(),
            source::alternating(2),
            n,
            5,
            &stream_cfg(false),
        );
        assert_eq!(
            serde_json::to_string(&streamed.report).unwrap(),
            serde_json::to_string(&batched).unwrap()
        );
        assert_eq!(streamed.digest.values(), StreamDigest::of(&batched).values());
    }

    #[test]
    fn retire_mode_matches_batched_digest_and_scalars() {
        let n = 18;
        let batched =
            run_batched(cfg(4), Population::mturk_live(), source::alternating_specs(2, n), 5);
        let streamed = run_stream(
            cfg(4),
            Population::mturk_live(),
            source::alternating(2),
            n,
            5,
            &stream_cfg(true),
        );
        assert_eq!(streamed.digest.values(), StreamDigest::of(&batched).values());
        // Rows were retired through the digest; scalars must survive.
        assert!(streamed.report.tasks.is_empty());
        assert_eq!(streamed.report.cost.total_micro(), batched.cost.total_micro());
        assert_eq!(streamed.report.workers_recruited, batched.workers_recruited);
        assert_eq!(streamed.report.workers_evicted, batched.workers_evicted);
        assert_eq!(streamed.report.started, batched.started);
        assert_eq!(streamed.report.finished, batched.finished);
    }

    #[test]
    fn checkpoints_are_identical_across_retirement_modes() {
        let run = |retire| {
            run_stream(
                cfg(5),
                Population::mturk_live(),
                source::alternating(2),
                24,
                5,
                &stream_cfg(retire),
            )
        };
        let retained = run(false);
        let retiring = run(true);
        assert!(!retained.checkpoints.is_empty());
        assert_eq!(retained.checkpoints, retiring.checkpoints);
    }

    #[test]
    fn rate_never_perturbs_scheduling() {
        // Open-loop contract: arrival rate may only change the
        // `arrived`/`backlog` reporting fields, never a scheduling
        // outcome.
        let run = |rate| {
            run_stream(
                cfg(6),
                Population::mturk_live(),
                source::alternating(2),
                12,
                4,
                &StreamConfig { rate_per_sec: rate, checkpoint_every: 4, retire: false },
            )
        };
        let slow = run(0.05);
        let fast = run(50.0);
        assert_eq!(
            serde_json::to_string(&slow.report).unwrap(),
            serde_json::to_string(&fast.report).unwrap()
        );
        for (s, f) in slow.checkpoints.iter().zip(&fast.checkpoints) {
            let mut f_masked = f.clone();
            f_masked.arrived = s.arrived;
            f_masked.backlog = s.backlog;
            assert_eq!(*s, f_masked, "only arrival fields may differ across rates");
        }
        // And the faster feed really did arrive faster.
        let (s_last, f_last) = (slow.checkpoints.last().unwrap(), fast.checkpoints.last().unwrap());
        assert!(f_last.arrived > s_last.arrived);
    }

    #[test]
    fn obs_fingerprint_matches_batched_run() {
        use clamshell_obs::ObsConfig;
        let obs_cfg = |seed| RunConfig { obs: ObsConfig::with_ring(1 << 14), ..cfg(seed) };
        let n = 12;
        let batched =
            run_batched(obs_cfg(7), Population::mturk_live(), source::alternating_specs(2, n), 4);
        let streamed = run_stream(
            obs_cfg(7),
            Population::mturk_live(),
            source::alternating(2),
            n,
            4,
            &stream_cfg(false),
        );
        let b_obs = batched.obs.as_ref().unwrap();
        let s_obs = streamed.report.obs.as_ref().unwrap();
        assert_eq!(s_obs.fingerprint, b_obs.fingerprint);
        assert_eq!(s_obs.recorded, b_obs.recorded);
        // The final checkpoint's probe pinned the same trace.
        let last = streamed.checkpoints.last().unwrap();
        assert!(last.obs_recorded > 0);
    }

    #[test]
    fn final_boundary_always_checkpoints() {
        let streamed = run_stream(
            cfg(8),
            Population::mturk_live(),
            source::alternating(2),
            3,
            4,
            &StreamConfig { rate_per_sec: 1.0, checkpoint_every: 1000, retire: false },
        );
        assert_eq!(streamed.checkpoints.len(), 1);
        let last = &streamed.checkpoints[0];
        assert_eq!(last.completed, 3);
        assert_eq!(last.admitted, 3);
    }

    #[test]
    #[should_panic]
    fn short_source_rejected() {
        let specs = source::alternating_specs(2, 3);
        let _ =
            run_stream(cfg(9), Population::mturk_live(), specs, 10, 4, &StreamConfig::default());
    }
}
