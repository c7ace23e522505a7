//! The open-loop streaming service loop.
//!
//! [`run_stream_with`] drives the same deterministic [`Runner`] that
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
//! Checkpoints go to the caller's sink as they are emitted; the engine
//! keeps only their count and the latest one ([`CheckpointTally`]), so
//! its memory does not grow with the stream, checkpoints included.
//! [`run_stream`] is the same loop with a sink that drops every row.
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
    /// Retire completed-task state at every batch boundary. The
    /// engine's live state is then one batch of task state plus fixed
    /// tables plus the latest checkpoint, whatever the stream length
    /// (each checkpoint goes to the caller's sink as it is emitted;
    /// only the latest is kept). The final report's row vectors come
    /// back empty (the rows were streamed out through the digest);
    /// scalars, checkpoints, and digests are byte-identical to retained
    /// mode, which keeps every row and so grows with the stream.
    pub retire: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { rate_per_sec: 1.0, checkpoint_every: 8, retire: false }
    }
}

/// Everything a streamed run keeps once it ends. Its size does not
/// depend on the stream length, except for the report's row vectors in
/// retained mode; the checkpoint sequence itself went to the sink.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The final report. With `retire: false` this is byte-identical to
    /// [`run_batched`](clamshell_core::runner::run_batched) over the
    /// same spec prefix; with `retire: true` the row vectors are empty
    /// (retired through the digest) but every scalar still matches.
    pub report: RunReport,
    /// How many checkpoints were emitted, and the final one.
    pub checkpoints: CheckpointTally,
    /// The running digest after every row was folded; equals
    /// [`StreamDigest::of`] of the batched reference report.
    pub digest: StreamDigest,
}

/// The fixed-size record a stream keeps of its checkpoints: how many it
/// emitted and the final one. The sequence itself goes to the sink of
/// [`run_stream_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointTally {
    emitted: usize,
    last: StreamCheckpoint,
}

// A stream always emits a final checkpoint, so a tally is never empty.
#[allow(clippy::len_without_is_empty)]
impl CheckpointTally {
    /// The number of checkpoints emitted (at least one).
    pub fn len(&self) -> usize {
        self.emitted
    }

    /// The final checkpoint: it pins the complete run.
    pub fn last(&self) -> &StreamCheckpoint {
        &self.last
    }
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

/// [`run_stream_with`] with a sink that drops every checkpoint: the
/// outcome still carries the count and the final one.
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
    run_stream_with(cfg, population, source, n_tasks, batch_size, stream, |_| {})
}

/// Label the first `n_tasks` tasks of `source` in streaming service
/// mode, handing each checkpoint to `on_checkpoint` as it is emitted.
///
/// The sink sees the whole sequence in order, `seq` running from 0; the
/// engine itself keeps only the [`CheckpointTally`]. A caller that wants
/// every row collects them in the sink.
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
pub fn run_stream_with<I>(
    cfg: RunConfig,
    population: Population,
    source: I,
    n_tasks: usize,
    batch_size: usize,
    stream: &StreamConfig,
    mut on_checkpoint: impl FnMut(&StreamCheckpoint),
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
    let mut emitted = 0usize;
    let mut last: Option<StreamCheckpoint> = None;
    let mut totals = Totals::default();
    // Fold cursors over the runner's unretired report rows.
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

        // Fold the report rows this batch appended: the suffix past the
        // cursors, in per-table append order. Retire mode then drops
        // every folded row (capacity kept) and rewinds the cursors;
        // retained mode keeps them for the final report.
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
        if stream.retire {
            runner.retire_completed();
            (tcur, acur, bcur) = (0, 0, 0);
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
            let checkpoint = StreamCheckpoint {
                seq: emitted as u64,
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
            };
            on_checkpoint(&checkpoint);
            emitted += 1;
            last = Some(checkpoint);
        }
    }

    let Some(last) = last else { unreachable!("the final batch boundary always checkpoints") };
    let checkpoints = CheckpointTally { emitted, last };
    StreamOutcome { report: runner.finish(), checkpoints, digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source;
    use clamshell_core::runner::run_batched;
    use clamshell_sim::json;

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
        assert_eq!(json::to_string(&streamed.report), json::to_string(&batched));
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

    /// Run the test cell through `run_stream_with`, collecting every
    /// checkpoint the sink sees.
    fn collected(
        seed: u64,
        n: usize,
        batch_size: usize,
        stream: &StreamConfig,
    ) -> (StreamOutcome, Vec<StreamCheckpoint>) {
        let mut seen = Vec::new();
        let outcome = run_stream_with(
            cfg(seed),
            Population::mturk_live(),
            source::alternating(2),
            n,
            batch_size,
            stream,
            |c| seen.push(c.clone()),
        );
        (outcome, seen)
    }

    #[test]
    fn checkpoints_are_identical_across_retirement_modes() {
        let (_, retained) = collected(5, 24, 5, &stream_cfg(false));
        let (_, retiring) = collected(5, 24, 5, &stream_cfg(true));
        assert!(!retained.is_empty());
        assert_eq!(retained, retiring);
    }

    #[test]
    fn sink_sees_every_checkpoint_in_order_and_the_tally_agrees() {
        for retire in [false, true] {
            let (outcome, seen) = collected(10, 30, 4, &stream_cfg(retire));
            assert_eq!(seen.len(), outcome.checkpoints.len());
            assert!(seen.len() > 1, "the cell must checkpoint more than once");
            for (i, c) in seen.iter().enumerate() {
                assert_eq!(c.seq, i as u64, "seq runs 0..n in emission order");
            }
            assert_eq!(seen.last(), Some(outcome.checkpoints.last()));
        }
    }

    #[test]
    fn run_stream_is_run_stream_with_a_dropping_sink() {
        for retire in [false, true] {
            let plain = run_stream(
                cfg(11),
                Population::mturk_live(),
                source::alternating(2),
                30,
                4,
                &stream_cfg(retire),
            );
            let (with, _) = collected(11, 30, 4, &stream_cfg(retire));
            assert_eq!(json::to_string(&plain.report), json::to_string(&with.report));
            assert_eq!(plain.digest.values(), with.digest.values());
            assert_eq!(plain.checkpoints, with.checkpoints);
        }
    }

    #[test]
    fn rate_never_perturbs_scheduling() {
        // Open-loop contract: arrival rate may only change the
        // `arrived`/`backlog` reporting fields, never a scheduling
        // outcome.
        let run = |rate| {
            let mut seen = Vec::new();
            let outcome = run_stream_with(
                cfg(6),
                Population::mturk_live(),
                source::alternating(2),
                12,
                4,
                &StreamConfig { rate_per_sec: rate, checkpoint_every: 4, retire: false },
                |c| seen.push(c.clone()),
            );
            (outcome, seen)
        };
        let (slow, slow_seen) = run(0.05);
        let (fast, fast_seen) = run(50.0);
        assert_eq!(json::to_string(&slow.report), json::to_string(&fast.report));
        assert_eq!(slow_seen.len(), fast_seen.len());
        for (s, f) in slow_seen.iter().zip(&fast_seen) {
            let mut f_masked = f.clone();
            f_masked.arrived = s.arrived;
            f_masked.backlog = s.backlog;
            assert_eq!(*s, f_masked, "only arrival fields may differ across rates");
        }
        // And the faster feed really did arrive faster.
        assert!(fast.checkpoints.last().arrived > slow.checkpoints.last().arrived);
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
        assert!(streamed.checkpoints.last().obs_recorded > 0);
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
        let last = streamed.checkpoints.last();
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
