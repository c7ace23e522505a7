//! Run reports: everything the figures consume.

use clamshell_crowd::{CostLedger, WorkerId};
use clamshell_obs::{Fnv, ObsReport};
use clamshell_sim::stats::Summary;
use clamshell_sim::time::{SimDuration, SimTime};

/// One completed task, as logged for Figures 3, 5, 10, 13.
#[derive(Debug, Clone, Copy)]
pub struct TaskRecord {
    /// Task index within the run.
    pub task: u32,
    /// Batch index.
    pub batch: usize,
    /// Records grouped in the task (`Ng`).
    pub ng: u32,
    /// Batch start (task availability) time.
    pub created: SimTime,
    /// Completion (quorum met) time.
    pub completed: SimTime,
    /// Winning worker (first answer).
    pub winner: WorkerId,
    /// The winner's assignment span.
    pub winner_span: SimDuration,
    /// Tasks the winner had completed in the pool before starting this one
    /// (the "worker age" axis of Figure 5).
    pub winner_age: u32,
    /// How many of the task's final (aggregated) labels match ground
    /// truth — the numerator of run-level label accuracy, which the
    /// adversity experiments report against the benign baseline.
    pub correct: u32,
}

clamshell_sim::json_struct! {
    TaskRecord { task, batch, ng, created, completed, winner, winner_span, winner_age, correct }
}

impl TaskRecord {
    /// Hash the row's identity words into `h`, each field as one
    /// little-endian `u64`. The golden suite's `CompactReport`
    /// fingerprint and the stream digest both fold rows through this, so
    /// any behavioural drift flips both.
    #[inline]
    pub fn digest_into(&self, h: &mut Fnv) {
        h.write_u64(self.task as u64);
        h.write_u64(self.batch as u64);
        h.write_u64(self.ng as u64);
        h.write_u64(self.created.as_millis());
        h.write_u64(self.completed.as_millis());
        h.write_u64(self.winner.0 as u64);
        h.write_u64(self.winner_span.as_millis());
        h.write_u64(self.winner_age as u64);
        h.write_u64(self.correct as u64);
    }

    /// Task latency from availability to completion, seconds.
    pub fn latency_secs(&self) -> f64 {
        self.completed.since(self.created).as_secs_f64()
    }

    /// Latency per label, seconds (Figure 5's y-axis: `task latency / Ng`).
    pub fn latency_per_label_secs(&self) -> f64 {
        self.winner_span.as_secs_f64() / self.ng.max(1) as f64
    }
}

/// One assignment, as logged for Figure 13's Gantt view.
#[derive(Debug, Clone, Copy)]
pub struct AssignmentRecord {
    /// Task index.
    pub task: u32,
    /// Batch index.
    pub batch: usize,
    /// Executing worker.
    pub worker: WorkerId,
    /// Start time.
    pub start: SimTime,
    /// End time (completion or termination).
    pub end: SimTime,
    /// True if terminated (blue in Figure 13), false if completed (red).
    pub terminated: bool,
}

clamshell_sim::json_struct!(AssignmentRecord { task, batch, worker, start, end, terminated });

impl AssignmentRecord {
    /// Hash the row's identity words into `h` (see
    /// [`TaskRecord::digest_into`]); `batch` follows from `task`.
    #[inline]
    pub fn digest_into(&self, h: &mut Fnv) {
        h.write_u64(self.task as u64);
        h.write_u64(self.worker.0 as u64);
        h.write_u64(self.start.as_millis());
        h.write_u64(self.end.as_millis());
        h.write_u64(self.terminated as u64);
    }
}

/// Per-batch aggregates (Figures 6, 9).
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Batch index.
    pub index: usize,
    /// Batch start time.
    pub start: SimTime,
    /// Batch end (all tasks complete).
    pub end: SimTime,
    /// Number of tasks in the batch.
    pub tasks: usize,
    /// Std of task completion latencies within the batch (Figure 9).
    pub task_latency_std: f64,
    /// Mean task completion latency within the batch.
    pub task_latency_mean: f64,
    /// Mean pool latency: average winning-assignment span of tasks
    /// completed this batch (Figure 6).
    pub mpl: f64,
    /// Workers evicted by maintenance at this batch boundary (Figure 7).
    pub evicted: usize,
}

clamshell_sim::json_struct! {
    BatchStats { index, start, end, tasks, task_latency_std, task_latency_mean, mpl, evicted }
}

impl BatchStats {
    /// Hash the row's integer words into `h` (see
    /// [`TaskRecord::digest_into`]); the float aggregates derive from the
    /// task log.
    #[inline]
    pub fn digest_into(&self, h: &mut Fnv) {
        h.write_u64(self.index as u64);
        h.write_u64(self.start.as_millis());
        h.write_u64(self.end.as_millis());
        h.write_u64(self.tasks as u64);
        h.write_u64(self.evicted as u64);
    }

    /// Batch makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }
}

/// The full output of a labeling run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-task log.
    pub tasks: Vec<TaskRecord>,
    /// Per-assignment log.
    pub assignments: Vec<AssignmentRecord>,
    /// Per-batch aggregates.
    pub batches: Vec<BatchStats>,
    /// Final cost ledger.
    pub cost: CostLedger,
    /// Total workers ever recruited.
    pub workers_recruited: usize,
    /// Total workers evicted by maintenance.
    pub workers_evicted: u64,
    /// Workers who walked out mid-assignment (adversity churn); always 0
    /// on benign runs.
    pub workers_departed: u64,
    /// Reserve workers released by the pool idle timeout; always 0 unless
    /// `RunConfig::pool.idle_timeout` is set.
    pub reserve_expired: u64,
    /// Stale members lazily retired at checkout after a generation bump;
    /// always 0 unless `RunConfig::pool.generations` is on.
    pub stale_retired: u64,
    /// Run start (first batch dispatch).
    pub started: SimTime,
    /// Run end (last task completion).
    pub finished: SimTime,
    /// Observability report (metrics snapshot + flight-recorder tail);
    /// `None` unless `RunConfig::obs.enabled`.
    pub obs: Option<ObsReport>,
}

clamshell_sim::json_struct! {
    RunReport { tasks, assignments, batches, cost, workers_recruited, workers_evicted,
        workers_departed, reserve_expired, stale_retired, started, finished, obs }
}

impl RunReport {
    /// Total labeling wall-clock, seconds, measured "from the moment the
    /// first task is sent to the pool" (§6.1).
    pub fn total_secs(&self) -> f64 {
        self.finished.since(self.started).as_secs_f64()
    }

    /// Labels produced (tasks × Ng).
    pub fn labels_produced(&self) -> u64 {
        self.tasks.iter().map(|t| t.ng as u64).sum()
    }

    /// Final labels matching ground truth.
    pub fn labels_correct(&self) -> u64 {
        self.tasks.iter().map(|t| t.correct as u64).sum()
    }

    /// Fraction of final labels matching ground truth (0 when no labels
    /// were produced). The adversity experiments report this against the
    /// benign baseline.
    pub fn accuracy(&self) -> f64 {
        let total = self.labels_produced();
        if total == 0 {
            0.0
        } else {
            self.labels_correct() as f64 / total as f64
        }
    }

    /// Labels per second over the whole run (§6.6's "labeling
    /// throughput").
    pub fn throughput(&self) -> f64 {
        let secs = self.total_secs();
        if secs > 0.0 {
            self.labels_produced() as f64 / secs
        } else {
            0.0
        }
    }

    /// Summary of per-task completion latencies, seconds.
    pub fn task_latency_summary(&self) -> Summary {
        Summary::of(&self.tasks.iter().map(|t| t.latency_secs()).collect::<Vec<_>>())
    }

    /// Summary of per-batch makespans, seconds.
    pub fn batch_makespan_summary(&self) -> Summary {
        Summary::of(&self.batches.iter().map(|b| b.makespan_secs()).collect::<Vec<_>>())
    }

    /// Mean of per-batch task-latency standard deviations (Figure 9's
    /// headline aggregation).
    pub fn mean_batch_std(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.task_latency_std).sum::<f64>() / self.batches.len() as f64
    }

    /// Cumulative labels-over-time series (Figures 3 and 10): sorted
    /// `(seconds since run start, cumulative labels)`.
    pub fn labels_over_time(&self) -> Vec<(f64, u64)> {
        let mut events: Vec<(f64, u64)> = self
            .tasks
            .iter()
            .map(|t| (t.completed.since(self.started).as_secs_f64(), t.ng as u64))
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = 0;
        events
            .into_iter()
            .map(|(t, ng)| {
                cum += ng;
                (t, cum)
            })
            .collect()
    }

    /// Fraction of assignments that were terminated.
    pub fn termination_rate(&self) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        self.assignments.iter().filter(|a| a.terminated).count() as f64
            / self.assignments.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn record(task: u32, batch: usize, created: u64, completed: u64, ng: u32) -> TaskRecord {
        TaskRecord {
            task,
            batch,
            ng,
            created: t(created),
            completed: t(completed),
            winner: WorkerId(0),
            winner_span: SimDuration::from_secs(completed - created),
            winner_age: 0,
            correct: ng.saturating_sub(1),
        }
    }

    fn report() -> RunReport {
        RunReport {
            tasks: vec![record(0, 0, 0, 10, 5), record(1, 0, 0, 20, 5), record(2, 1, 20, 25, 5)],
            assignments: vec![
                AssignmentRecord {
                    task: 0,
                    batch: 0,
                    worker: WorkerId(0),
                    start: t(0),
                    end: t(10),
                    terminated: false,
                },
                AssignmentRecord {
                    task: 0,
                    batch: 0,
                    worker: WorkerId(1),
                    start: t(0),
                    end: t(11),
                    terminated: true,
                },
            ],
            batches: vec![
                BatchStats {
                    index: 0,
                    start: t(0),
                    end: t(20),
                    tasks: 2,
                    task_latency_std: 5.0,
                    task_latency_mean: 15.0,
                    mpl: 15.0,
                    evicted: 1,
                },
                BatchStats {
                    index: 1,
                    start: t(20),
                    end: t(25),
                    tasks: 1,
                    task_latency_std: 1.0,
                    task_latency_mean: 5.0,
                    mpl: 5.0,
                    evicted: 0,
                },
            ],
            cost: CostLedger::new(),
            workers_recruited: 4,
            workers_evicted: 1,
            workers_departed: 0,
            reserve_expired: 0,
            stale_retired: 0,
            started: t(0),
            finished: t(25),
            obs: None,
        }
    }

    #[test]
    fn totals_and_throughput() {
        let r = report();
        assert_eq!(r.total_secs(), 25.0);
        assert_eq!(r.labels_produced(), 15);
        assert!((r.throughput() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn latency_summaries() {
        let r = report();
        let s = r.task_latency_summary();
        assert_eq!(s.n, 3);
        assert!((s.mean - (10.0 + 20.0 + 5.0) / 3.0).abs() < 1e-12);
        let b = r.batch_makespan_summary();
        assert_eq!(b.n, 2);
        assert_eq!(b.max, 20.0);
        assert!((r.mean_batch_std() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn labels_over_time_monotone() {
        let r = report();
        let series = r.labels_over_time();
        assert_eq!(series.len(), 3);
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(series.last().unwrap().1, 15);
    }

    #[test]
    fn termination_rate() {
        let r = report();
        assert!((r.termination_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_is_correct_over_produced() {
        let r = report();
        // Each fixture task has ng = 5 and correct = 4.
        assert_eq!(r.labels_correct(), 12);
        assert!((r.accuracy() - 12.0 / 15.0).abs() < 1e-12);
        let empty = RunReport { tasks: vec![], ..r };
        assert_eq!(empty.accuracy(), 0.0);
    }

    #[test]
    fn per_label_latency_uses_winner_span() {
        let rec = record(0, 0, 0, 10, 5);
        assert!((rec.latency_per_label_secs() - 2.0).abs() < 1e-12);
    }
}
