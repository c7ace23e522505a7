//! Compact `RunReport` snapshots for the golden-master suite.
//!
//! A full [`RunReport`] serializes to kilobytes per cell; committing
//! those for every `(scenario, seed)` would bloat the repo and make
//! review diffs useless. A [`CompactReport`] keeps the scalar outcomes
//! (counts, totals, integer milliseconds — no floats, so rendering is
//! trivially byte-stable) plus an FNV-1a fingerprint over the *entire*
//! task and assignment logs: any behavioural drift, even one that
//! leaves every aggregate untouched, flips the fingerprint.

use clamshell_core::metrics::RunReport;
use clamshell_obs::Fnv;
use serde::Serialize;

/// Scalar digest of one `(scenario, seed)` run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CompactReport {
    /// Scenario name (catalog key).
    pub scenario: String,
    /// The cell's seed.
    pub seed: u64,
    /// Tasks completed.
    pub tasks: usize,
    /// Batches run.
    pub batches: usize,
    /// Labels produced (tasks × Ng).
    pub labels: u64,
    /// Final labels matching ground truth.
    pub labels_correct: u64,
    /// Run wall-clock, integer milliseconds.
    pub total_ms: u64,
    /// Total cost in micro-dollars.
    pub cost_micro: u64,
    /// Workers ever recruited.
    pub workers_recruited: usize,
    /// Workers evicted by maintenance.
    pub workers_evicted: u64,
    /// Workers who walked out mid-assignment.
    pub workers_departed: u64,
    /// Assignments logged (completed + terminated).
    pub assignments: usize,
    /// Assignments that ended terminated.
    pub terminated: usize,
    /// FNV-1a fingerprint of the full task + assignment logs.
    pub fingerprint: u64,
}

impl CompactReport {
    /// Digest `report` for `(scenario, seed)`.
    pub fn of(scenario: &str, seed: u64, report: &RunReport) -> Self {
        let mut h = Fnv::new();
        for t in &report.tasks {
            t.digest_into(&mut h);
        }
        for a in &report.assignments {
            a.digest_into(&mut h);
        }
        for b in &report.batches {
            b.digest_into(&mut h);
        }
        CompactReport {
            scenario: scenario.to_string(),
            seed,
            tasks: report.tasks.len(),
            batches: report.batches.len(),
            labels: report.labels_produced(),
            labels_correct: report.labels_correct(),
            total_ms: report.finished.since(report.started).as_millis(),
            cost_micro: report.cost.total_micro(),
            workers_recruited: report.workers_recruited,
            workers_evicted: report.workers_evicted,
            workers_departed: report.workers_departed,
            assignments: report.assignments.len(),
            terminated: report.assignments.iter().filter(|a| a.terminated).count(),
            fingerprint: h.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_core::runner::run_batched;
    use clamshell_core::task::TaskSpec;
    use clamshell_core::RunConfig;
    use clamshell_trace::Population;

    fn report(seed: u64) -> RunReport {
        let cfg = RunConfig { pool_size: 4, ng: 2, seed, ..Default::default() };
        let specs: Vec<TaskSpec> = (0..6).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
        run_batched(cfg, Population::mturk_live(), specs, 3)
    }

    #[test]
    fn digest_is_deterministic_and_seed_sensitive() {
        let a = CompactReport::of("benign", 5, &report(5));
        let b = CompactReport::of("benign", 5, &report(5));
        assert_eq!(a, b);
        let c = CompactReport::of("benign", 6, &report(6));
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn fingerprint_sees_through_identical_aggregates() {
        // Two reports with the same counts but different logs must
        // disagree: perturb one completion time.
        let base = report(7);
        let mut twisted = base.clone();
        twisted.tasks[0].winner_age += 1;
        let a = CompactReport::of("x", 7, &base);
        let b = CompactReport::of("x", 7, &twisted);
        assert_eq!(a.tasks, b.tasks);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn digest_serializes_without_floats() {
        // Golden snapshots must be trivially byte-stable: integer fields
        // only, so no float-formatting subtleties can creep in.
        let c = CompactReport::of("benign", 5, &report(5));
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains('.'), "no floats in golden snapshots: {json}");
        assert!(json.contains("\"fingerprint\""));
    }
}
