//! Periodic progress snapshots of a streamed run, plus the running
//! digest that ties them to the batched reference report.
//!
//! A [`StreamCheckpoint`] is deliberately integer-only (like the golden
//! suite's `CompactReport`): serialized snapshots are trivially
//! byte-stable, so they can be committed as golden masters and
//! byte-compared across thread counts and retirement modes.

use clamshell_core::metrics::{AssignmentRecord, BatchStats, RunReport, TaskRecord};
use clamshell_obs::Fnv;

/// Three running FNV-1a fingerprints over the task, assignment, and
/// batch logs of a run — one hasher per table, so rows can be folded
/// incrementally (as batches complete or retire) and still reproduce
/// the digest of the complete batched report.
///
/// Each row is hashed by its own `digest_into`, the same word sequence
/// the golden suite's `CompactReport` fingerprint folds, so any
/// behavioural drift — even one that leaves all aggregates untouched —
/// flips a digest.
#[derive(Debug, Clone)]
pub struct StreamDigest {
    tasks: Fnv,
    assignments: Fnv,
    batches: Fnv,
}

impl Default for StreamDigest {
    fn default() -> Self {
        StreamDigest::new()
    }
}

impl StreamDigest {
    /// Fresh digest (no rows folded).
    pub fn new() -> Self {
        StreamDigest { tasks: Fnv::new(), assignments: Fnv::new(), batches: Fnv::new() }
    }

    /// Fold one task record.
    pub fn fold_task(&mut self, t: &TaskRecord) {
        t.digest_into(&mut self.tasks);
    }

    /// Fold one assignment record.
    pub fn fold_assignment(&mut self, a: &AssignmentRecord) {
        a.digest_into(&mut self.assignments);
    }

    /// Fold one batch-statistics row.
    pub fn fold_batch(&mut self, b: &BatchStats) {
        b.digest_into(&mut self.batches);
    }

    /// The three fingerprints `(tasks, assignments, batches)` as of the
    /// rows folded so far.
    pub fn values(&self) -> (u64, u64, u64) {
        (self.tasks.finish(), self.assignments.finish(), self.batches.finish())
    }

    /// Digest of a complete report — the batched reference the streamed
    /// (incrementally folded) digest must equal.
    pub fn of(report: &RunReport) -> Self {
        let mut d = StreamDigest::new();
        for t in &report.tasks {
            d.fold_task(t);
        }
        for a in &report.assignments {
            d.fold_assignment(a);
        }
        for b in &report.batches {
            d.fold_batch(b);
        }
        d
    }
}

/// One periodic snapshot of a streamed run, emitted at a batch boundary
/// once enough tasks have completed since the previous snapshot.
///
/// All fields are integers (millisecond times, micro-dollar cost), so a
/// serialized checkpoint sequence is byte-stable across platforms,
/// thread counts, and retirement modes. `arrived`/`backlog` come from
/// the open-loop arrival schedule and are the only rate-dependent
/// fields; everything else is a pure function of `(RunConfig, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Snapshot sequence number, from 0.
    pub seq: u64,
    /// Simulated time of the batch boundary, milliseconds.
    pub at_ms: u64,
    /// Tasks of the stream that had arrived by `at_ms` (open-loop
    /// schedule; reporting only).
    pub arrived: u64,
    /// Tasks admitted to the runner so far.
    pub admitted: u64,
    /// Tasks completed so far.
    pub completed: u64,
    /// `arrived - completed`, floored at zero: the service backlog the
    /// open-loop clients observe.
    pub backlog: u64,
    /// Batches run so far.
    pub batches: u64,
    /// Labels produced so far (Σ task `ng`).
    pub labels: u64,
    /// Labels matching ground truth so far.
    pub labels_correct: u64,
    /// Assignments logged so far (completed + terminated).
    pub assignments: u64,
    /// Assignments that ended terminated.
    pub terminated: u64,
    /// Cumulative cost, micro-dollars.
    pub cost_micro: u64,
    /// Workers ever recruited.
    pub recruited: u64,
    /// Workers evicted by maintenance.
    pub evicted: u64,
    /// Workers who walked out mid-assignment.
    pub departed: u64,
    /// Running task-log fingerprint ([`StreamDigest`]).
    pub digest_tasks: u64,
    /// Running assignment-log fingerprint.
    pub digest_assignments: u64,
    /// Running batch-log fingerprint.
    pub digest_batches: u64,
    /// Trace events recorded so far (0 when observability is off).
    pub obs_recorded: u64,
    /// Trace fingerprint over every event so far (0 when off).
    pub obs_fingerprint: u64,
}

clamshell_sim::json_struct! {
    StreamCheckpoint { seq, at_ms, arrived, admitted, completed, backlog, batches, labels,
        labels_correct, assignments, terminated, cost_micro, recruited, evicted, departed,
        digest_tasks, digest_assignments, digest_batches, obs_recorded, obs_fingerprint }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_core::runner::run_batched;
    use clamshell_core::task::TaskSpec;
    use clamshell_core::RunConfig;
    use clamshell_sim::json;
    use clamshell_trace::Population;

    fn report(seed: u64) -> RunReport {
        let cfg = RunConfig { pool_size: 4, ng: 2, seed, ..Default::default() };
        let specs: Vec<TaskSpec> = (0..6).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
        run_batched(cfg, Population::mturk_live(), specs, 3)
    }

    #[test]
    fn incremental_fold_matches_whole_report_digest() {
        let rep = report(9);
        let whole = StreamDigest::of(&rep);
        // Fold the same rows interleaved table-by-table in two halves —
        // the per-table hashers make interleaving irrelevant.
        let mut inc = StreamDigest::new();
        let (t_half, a_half) = (rep.tasks.len() / 2, rep.assignments.len() / 2);
        for t in &rep.tasks[..t_half] {
            inc.fold_task(t);
        }
        for a in &rep.assignments[..a_half] {
            inc.fold_assignment(a);
        }
        for t in &rep.tasks[t_half..] {
            inc.fold_task(t);
        }
        for a in &rep.assignments[a_half..] {
            inc.fold_assignment(a);
        }
        for b in &rep.batches {
            inc.fold_batch(b);
        }
        assert_eq!(inc.values(), whole.values());
    }

    #[test]
    fn digest_is_seed_sensitive() {
        assert_ne!(StreamDigest::of(&report(1)).values(), StreamDigest::of(&report(2)).values());
    }

    #[test]
    fn digest_sees_single_row_drift() {
        let base = report(7);
        let mut twisted = base.clone();
        twisted.tasks[0].winner_age += 1;
        assert_ne!(StreamDigest::of(&base).values(), StreamDigest::of(&twisted).values());
    }

    #[test]
    fn checkpoint_serializes_without_floats() {
        let c = StreamCheckpoint {
            seq: 0,
            at_ms: 1,
            arrived: 2,
            admitted: 3,
            completed: 4,
            backlog: 0,
            batches: 1,
            labels: 8,
            labels_correct: 7,
            assignments: 5,
            terminated: 1,
            cost_micro: 123,
            recruited: 4,
            evicted: 0,
            departed: 0,
            digest_tasks: 9,
            digest_assignments: 10,
            digest_batches: 11,
            obs_recorded: 0,
            obs_fingerprint: 0,
        };
        let json = json::to_string(&c);
        assert!(!json.contains('.'), "no floats in checkpoint snapshots: {json}");
        assert!(json.contains("\"digest_tasks\":9"));
        assert!(json.contains("\"obs_fingerprint\":0"));
    }
}
