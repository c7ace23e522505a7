//! Pool maintenance: per-worker latency accounting, TermEst, and the
//! eviction decision (§4.2–§4.3).

use crate::config::MaintenanceConfig;
use clamshell_crowd::WorkerId;
use clamshell_sim::stats::OnlineStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Empirical latency bookkeeping for one worker. All latencies are
/// **seconds per label** (task latency divided by `Ng`), matching the
/// per-label thresholds of Figures 5, 7 and 8.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Per-label latency of *completed* tasks (the `l_{s,Tc}` sample).
    pub completed: OnlineStats,
    /// Number of tasks started (`N`).
    pub started: u64,
    /// Number of tasks terminated under the worker (`N_t`).
    pub terminated: u64,
    /// Empirical means of the workers that caused this worker's
    /// terminations — TermEst's estimate of `l_f` (§4.3: "we estimate lf
    /// as the empirical mean of the workers that caused any of ws' past
    /// jobs to terminate").
    pub terminators: OnlineStats,
    /// Records where this worker's answer matched the voted consensus
    /// (numerator of the agreement rate; quality maintenance, §4.2
    /// "Extensions").
    pub quality_matched: u64,
    /// Records compared against a consensus (denominator).
    pub quality_total: u64,
}

impl WorkerStats {
    /// Tasks completed (`N_c = N − N_t`).
    pub fn completed_count(&self) -> u64 {
        self.started.saturating_sub(self.terminated)
    }

    /// Record a completed task of `ng` records taking `secs`.
    pub fn record_completion(&mut self, secs: f64, ng: u32) {
        self.completed.push(secs / ng.max(1) as f64);
    }

    /// Record that one of this worker's tasks was terminated, caused by a
    /// worker whose current empirical per-label mean is `terminator_mean`
    /// (if known).
    pub fn record_termination(&mut self, terminator_mean: Option<f64>) {
        self.terminated += 1;
        if let Some(m) = terminator_mean {
            self.terminators.push(m);
        }
    }

    /// TermEst (§4.3): estimated mean per-label latency of the worker's
    /// *terminated* tasks,
    /// `l̂_{s,Tt} = l_f · (N + α) / (N_c + α)`.
    ///
    /// Falls back to the completed-task mean when no terminator evidence
    /// exists.
    pub fn termest_terminated_mean(&self, alpha: f64) -> f64 {
        let lf = if self.terminators.count() > 0 {
            self.terminators.mean()
        } else {
            return self.completed.mean();
        };
        let n = self.started as f64;
        let nc = self.completed_count() as f64;
        lf * (n + alpha) / (nc + alpha)
    }

    /// TermEst-adjusted overall mean:
    /// `l̂_s = (N_t/N)·l̂_{s,Tt} + (N_c/N)·l_{s,Tc}`.
    pub fn termest_mean(&self, alpha: f64) -> f64 {
        if self.started == 0 {
            return 0.0;
        }
        let n = self.started as f64;
        let nt = self.terminated as f64;
        let nc = self.completed_count() as f64;
        (nt / n) * self.termest_terminated_mean(alpha) + (nc / n) * self.completed.mean()
    }

    /// Plain empirical mean over completed tasks only (what maintenance
    /// sees *without* TermEst — biased fast under straggler mitigation).
    pub fn naive_mean(&self) -> f64 {
        self.completed.mean()
    }

    /// Record agreement with a voted consensus: `matched` of `total`
    /// records agreed.
    pub fn record_quality(&mut self, matched: u64, total: u64) {
        debug_assert!(matched <= total);
        self.quality_matched += matched;
        self.quality_total += total;
    }

    /// Agreement-with-consensus rate, `None` until any signal exists.
    pub fn agreement_rate(&self) -> Option<f64> {
        if self.quality_total == 0 {
            None
        } else {
            Some(self.quality_matched as f64 / self.quality_total as f64)
        }
    }

    /// One-sided test: is this worker's agreement rate significantly
    /// *below* `min_agreement` at level `alpha`? Normal approximation to
    /// the binomial; requires at least `min_n` compared records.
    pub fn agreement_below(&self, min_agreement: f64, alpha: f64, min_n: u64) -> bool {
        if self.quality_total < min_n.max(1) {
            return false;
        }
        let n = self.quality_total as f64;
        let p_hat = self.quality_matched as f64 / n;
        let se = (min_agreement * (1.0 - min_agreement) / n).sqrt();
        if se == 0.0 {
            return p_hat < min_agreement;
        }
        let z = (p_hat - min_agreement) / se;
        clamshell_sim::dist::standard_normal_cdf(z) < alpha
    }
}

/// The Maintainer: accumulates [`WorkerStats`] and decides evictions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Maintainer {
    stats: BTreeMap<WorkerId, WorkerStats>,
    /// Total workers evicted so far (for Figures 7 and 14).
    pub evictions: u64,
    /// Workers who walked out mid-assignment (adversity churn). Tracked
    /// here because churn and eviction compete for the same reserve:
    /// every walkout consumes a replacement that maintenance could have
    /// spent on a slow worker.
    pub walkouts: u64,
}

impl Maintainer {
    /// Empty maintainer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stats entry for a worker, creating it on first touch.
    pub fn stats_mut(&mut self, w: WorkerId) -> &mut WorkerStats {
        self.stats.entry(w).or_default()
    }

    /// Read-only stats for a worker.
    pub fn stats(&self, w: WorkerId) -> Option<&WorkerStats> {
        self.stats.get(&w)
    }

    /// The worker's best latency estimate under the current config:
    /// TermEst-adjusted when enabled, completed-only otherwise.
    pub fn estimate(&self, w: WorkerId, cfg: &MaintenanceConfig) -> Option<f64> {
        let s = self.stats.get(&w)?;
        if s.started == 0 {
            return None;
        }
        Some(if cfg.use_termest { s.termest_mean(cfg.termest_alpha) } else { s.naive_mean() })
    }

    /// The eviction decision for one worker (§4.2): flag when the latency
    /// estimate is significantly above `PMℓ` by a one-sided test.
    ///
    /// The significance test runs on the completed-task sample; TermEst
    /// shifts its mean (the paper: "our formulation is equivalent to
    /// modifying the latency threshold on a per worker basis"). Workers
    /// whose every task was terminated carry no completed-sample variance,
    /// so they are flagged on the raw TermEst estimate once they have
    /// enough attempts.
    pub fn should_evict(&self, w: WorkerId, cfg: &MaintenanceConfig) -> bool {
        use crate::config::MaintenanceObjective as Obj;
        let Some(s) = self.stats.get(&w) else {
            return false;
        };
        if s.started < cfg.min_tasks {
            return false;
        }
        // Quality leg (§4.2 Extensions): flag workers whose agreement
        // with the voted consensus is significantly below the floor.
        let quality_flag = match cfg.objective {
            Obj::Speed => false,
            Obj::Quality { min_agreement } | Obj::SpeedAndQuality { min_agreement } => {
                s.agreement_below(min_agreement, cfg.alpha, cfg.min_tasks)
            }
        };
        if quality_flag {
            return true;
        }
        if matches!(cfg.objective, Obj::Quality { .. }) {
            return false; // quality-only maintenance ignores speed
        }
        let est = match self.estimate(w, cfg) {
            Some(e) => e,
            None => return false,
        };
        if s.completed.count() >= 2 {
            // Shift the completed sample by the TermEst correction and run
            // the one-sided test against PMℓ. Shifting the mean leaves the
            // variance unchanged, so test the unshifted sample against a
            // threshold shifted the other way.
            let shift = est - s.completed.mean();
            let threshold = cfg.threshold_per_label_secs - shift;
            s.completed.mean_exceeds(threshold, cfg.alpha, cfg.min_tasks.min(2))
        } else {
            // No (or single) completed sample: decide on the point
            // estimate alone.
            est > cfg.threshold_per_label_secs
        }
    }

    /// All current pool members flagged for eviction, slowest-estimate
    /// first (so limited reserves replace the worst workers).
    pub fn flag_evictions(
        &self,
        pool_members: impl Iterator<Item = WorkerId>,
        cfg: &MaintenanceConfig,
    ) -> Vec<WorkerId> {
        let mut flagged: Vec<(f64, WorkerId)> = pool_members
            .filter(|&w| self.should_evict(w, cfg))
            .map(|w| (self.estimate(w, cfg).unwrap_or(0.0), w))
            .collect();
        flagged.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        flagged.into_iter().map(|(_, w)| w).collect()
    }

    /// Record an eviction (for the replacement-rate figures).
    pub fn note_eviction(&mut self) {
        self.evictions += 1;
    }

    /// React to a mid-assignment walkout: count it and drop the departed
    /// worker's stats — they can never return, so keeping their sample
    /// would only skew pool-level aggregates.
    pub fn note_walkout(&mut self, w: WorkerId) {
        self.walkouts += 1;
        self.stats.remove(&w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MaintenanceConfig {
        MaintenanceConfig::pm8()
    }

    #[test]
    fn completion_tracking_per_label() {
        let mut s = WorkerStats { started: 2, ..Default::default() };
        s.record_completion(20.0, 5); // 4 s/label
        s.record_completion(30.0, 5); // 6 s/label
        assert!((s.naive_mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.completed_count(), 2);
    }

    #[test]
    fn termest_formula_matches_paper() {
        // N = 10 tasks, 6 terminated, terminators average lf = 3 s/label,
        // completed mean 4 s/label, α = 1.
        let mut s = WorkerStats { started: 10, ..Default::default() };
        for _ in 0..4 {
            s.record_completion(4.0, 1);
        }
        for _ in 0..6 {
            s.record_termination(Some(3.0));
        }
        // l̂_{s,Tt} = 3 * (10 + 1) / (4 + 1) = 6.6
        assert!((s.termest_terminated_mean(1.0) - 6.6).abs() < 1e-12);
        // l̂_s = 0.6*6.6 + 0.4*4.0 = 5.56
        assert!((s.termest_mean(1.0) - 5.56).abs() < 1e-12);
    }

    #[test]
    fn termest_handles_all_terminated() {
        // Worker never completed anything: N = T, Nc = 0. The α smoothing
        // avoids the divide-by-zero the paper calls out.
        let mut s = WorkerStats { started: 5, ..Default::default() };
        for _ in 0..5 {
            s.record_termination(Some(2.0));
        }
        let est = s.termest_terminated_mean(1.0);
        assert!((est - 2.0 * 6.0 / 1.0).abs() < 1e-12); // 2*(5+1)/(0+1)=12
        assert!(est > 8.0, "all-terminated worker should look slow");
        assert!((s.termest_mean(1.0) - est).abs() < 1e-12);
    }

    #[test]
    fn termest_exceeds_naive_under_termination() {
        // The whole point of TermEst: terminated tasks hide slowness, so
        // the adjusted estimate must be >= the naive completed-only mean.
        let mut s = WorkerStats { started: 8, ..Default::default() };
        for _ in 0..3 {
            s.record_completion(5.0, 1);
        }
        for _ in 0..5 {
            s.record_termination(Some(4.0));
        }
        assert!(s.termest_mean(1.0) > s.naive_mean());
    }

    #[test]
    fn eviction_flags_clearly_slow_worker() {
        let mut m = Maintainer::new();
        let w = WorkerId(0);
        let s = m.stats_mut(w);
        s.started = 10;
        for i in 0..10 {
            s.record_completion(12.0 + (i % 3) as f64, 1); // ~13 s/label
        }
        assert!(m.should_evict(w, &cfg()));
    }

    #[test]
    fn eviction_spares_fast_and_unknown_workers() {
        let mut m = Maintainer::new();
        let fast = WorkerId(1);
        let s = m.stats_mut(fast);
        s.started = 10;
        for _ in 0..10 {
            s.record_completion(3.0, 1);
        }
        assert!(!m.should_evict(fast, &cfg()));
        assert!(!m.should_evict(WorkerId(99), &cfg()), "never-seen worker");
    }

    #[test]
    fn eviction_requires_evidence() {
        let mut m = Maintainer::new();
        let w = WorkerId(2);
        let s = m.stats_mut(w);
        s.started = 1;
        s.record_completion(50.0, 1);
        assert!(!m.should_evict(w, &cfg()), "one task is not enough (min_tasks=3)");
    }

    #[test]
    fn termest_rescues_detection_under_straggler_mitigation() {
        // A slow worker whose slow tasks are all terminated: completed
        // tasks (the few fast ones) average below PMl, so the naive
        // estimate misses them; TermEst catches them. This is Figure 14.
        let mut m = Maintainer::new();
        let w = WorkerId(3);
        let s = m.stats_mut(w);
        s.started = 10;
        for _ in 0..2 {
            s.record_completion(6.0, 1); // the lucky fast ones
        }
        for _ in 0..8 {
            s.record_termination(Some(4.0)); // fast co-workers kept winning
        }
        let with = cfg(); // use_termest: true
        let without = MaintenanceConfig { use_termest: false, ..cfg() };
        assert!(m.should_evict(w, &with), "TermEst should flag");
        assert!(!m.should_evict(w, &without), "naive estimate should miss");
    }

    #[test]
    fn quality_objective_flags_disagreeing_worker() {
        use crate::config::MaintenanceObjective;
        let qcfg = MaintenanceConfig {
            objective: MaintenanceObjective::Quality { min_agreement: 0.8 },
            ..cfg()
        };
        let mut m = Maintainer::new();
        // A fast but wildly inaccurate worker: speed maintenance keeps
        // them, quality maintenance must not.
        let w = WorkerId(0);
        let s = m.stats_mut(w);
        s.started = 10;
        for _ in 0..10 {
            s.record_completion(2.0, 1); // very fast
        }
        s.record_quality(4, 10); // 40% agreement
        assert!(!m.should_evict(w, &cfg()), "speed objective ignores quality");
        assert!(m.should_evict(w, &qcfg), "quality objective flags them");
    }

    #[test]
    fn quality_objective_keeps_accurate_workers() {
        use crate::config::MaintenanceObjective;
        let qcfg = MaintenanceConfig {
            objective: MaintenanceObjective::Quality { min_agreement: 0.8 },
            ..cfg()
        };
        let mut m = Maintainer::new();
        // Slow but accurate: quality-only maintenance keeps them even
        // though speed maintenance would evict.
        let w = WorkerId(1);
        let s = m.stats_mut(w);
        s.started = 10;
        for _ in 0..10 {
            s.record_completion(20.0, 1);
        }
        s.record_quality(19, 20);
        assert!(m.should_evict(w, &cfg()), "speed objective would evict");
        assert!(!m.should_evict(w, &qcfg), "quality objective keeps them");
    }

    #[test]
    fn speed_and_quality_flags_either_failure() {
        use crate::config::MaintenanceObjective;
        let both = MaintenanceConfig {
            objective: MaintenanceObjective::SpeedAndQuality { min_agreement: 0.8 },
            ..cfg()
        };
        let mut m = Maintainer::new();
        let slow = WorkerId(0);
        let s = m.stats_mut(slow);
        s.started = 8;
        for _ in 0..8 {
            s.record_completion(20.0, 1);
        }
        s.record_quality(20, 20); // accurate but slow
        let sloppy = WorkerId(1);
        let s = m.stats_mut(sloppy);
        s.started = 8;
        for _ in 0..8 {
            s.record_completion(2.0, 1);
        }
        s.record_quality(6, 20); // fast but inaccurate
        let good = WorkerId(2);
        let s = m.stats_mut(good);
        s.started = 8;
        for _ in 0..8 {
            s.record_completion(2.0, 1);
        }
        s.record_quality(19, 20);
        assert!(m.should_evict(slow, &both));
        assert!(m.should_evict(sloppy, &both));
        assert!(!m.should_evict(good, &both));
    }

    #[test]
    fn agreement_test_needs_evidence() {
        let mut s = WorkerStats::default();
        s.record_quality(0, 2); // 0% but only two records
        assert!(!s.agreement_below(0.8, 0.05, 5));
        s.record_quality(1, 18);
        assert!(s.agreement_below(0.8, 0.05, 5));
        assert!((s.agreement_rate().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn flagged_evictions_sorted_slowest_first() {
        let mut m = Maintainer::new();
        for (id, lat) in [(0u32, 20.0), (1, 15.0), (2, 3.0), (3, 30.0)] {
            let s = m.stats_mut(WorkerId(id));
            s.started = 6;
            for _ in 0..6 {
                s.record_completion(lat, 1);
            }
        }
        let flagged = m.flag_evictions(
            [WorkerId(0), WorkerId(1), WorkerId(2), WorkerId(3)].into_iter(),
            &cfg(),
        );
        assert_eq!(flagged, vec![WorkerId(3), WorkerId(0), WorkerId(1)]);
    }
}
