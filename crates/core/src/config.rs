//! Experimental configuration — the knobs of Table 3.
//!
//! | Param | Paper description                               | Here |
//! |-------|--------------------------------------------------|------|
//! | `PMℓ` | Latency threshold for pool maintenance           | [`MaintenanceConfig::threshold_per_label_secs`] |
//! | `SM`  | Straggler mitigation on/off                      | [`RunConfig::straggler`] (`Option`) |
//! | `Np`  | Number of workers in the retainer pool           | [`RunConfig::pool_size`] |
//! | `Ng`  | Task complexity: records grouped per HIT         | [`RunConfig::ng`] |
//! | `R`   | Pool-to-batch ratio                              | derived: callers size batches as `Np / R` |
//! | `Alg` | AL / PL / HL / NL                                | [`crate::learning::Strategy`] |

use crate::lifeguard::RoutingPolicy;
use clamshell_crowd::PlatformConfig;

pub use clamshell_crowd::{CheckoutStrategy, PoolConfig};
pub use clamshell_obs::ObsConfig;

/// How straggler mitigation interacts with redundancy-based quality
/// control (§4.1 "Working with Quality Control").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QcMode {
    /// CLAMShell's approach: a task needing `v` more answers may hold at
    /// most `v + 1` concurrent assignments — mitigation adds "only single
    /// available workers to the task at a time".
    Decoupled,
    /// The naive combination the paper warns about: every needed vote is
    /// duplicated, so a task needing `v` answers holds up to `2·v`
    /// assignments ("would create 6 assignments" for 3 votes).
    Naive,
}

/// Straggler-mitigation settings (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerConfig {
    /// Which active task an idle worker is routed to. The paper finds
    /// `Random` performs as well as `Oracle`; we default to `Random` and
    /// reproduce that finding in the `routing` experiment.
    pub routing: RoutingPolicy,
    /// Interaction with quality control.
    pub qc_mode: QcMode,
    /// Cap on *extra* (mitigation) assignments per task beyond the vote
    /// quorum when `quorum == 1`. `None` = unbounded: every idle worker
    /// piles onto the remaining active tasks, which is the behaviour the
    /// paper's high-`R` experiments exhibit.
    pub max_extra: Option<usize>,
}

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig {
            routing: RoutingPolicy::Random,
            qc_mode: QcMode::Decoupled,
            max_extra: None,
        }
    }
}

/// What pool maintenance optimizes for. §4.2 "Extensions": maintenance
/// "can be easily extended to optimize for other criteria … we could
/// maintain a pool using quality (estimated using, e.g., inter-worker
/// agreement) to converge to a high-quality pool, \[or\] use a weighted
/// average to trade off quality and speed".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaintenanceObjective {
    /// Evict on latency only (the paper's main configuration).
    Speed,
    /// Evict on answer quality only: workers whose agreement with the
    /// voted consensus is significantly below `min_agreement` are
    /// replaced. Requires a vote quorum ≥ 2 to generate agreement signal.
    Quality {
        /// Minimum acceptable agreement-with-consensus rate.
        min_agreement: f64,
    },
    /// Evict on either signal (speed threshold *or* quality floor).
    SpeedAndQuality {
        /// Minimum acceptable agreement-with-consensus rate.
        min_agreement: f64,
    },
}

/// Pool-maintenance settings (§4.2–§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceConfig {
    /// `PMℓ`: per-label latency threshold in seconds; workers
    /// significantly above it are eviction candidates. The paper's
    /// live-experiment optimum is 8 s (Figure 8).
    pub threshold_per_label_secs: f64,
    /// Significance level of the one-sided eviction test.
    pub alpha: f64,
    /// Minimum tasks started before a worker can be flagged (evidence
    /// floor; prevents evicting on a single unlucky draw).
    pub min_tasks: u64,
    /// Background-recruitment reserve target: how many replacement
    /// workers to keep warm ("continuously recruits and trains workers in
    /// the background in order to maintain a reserve", §4.2).
    pub reserve_target: usize,
    /// Use TermEst to correct latency estimates for terminated tasks when
    /// straggler mitigation is also active (§4.3). Without it, worker
    /// replacement collapses (Figure 14).
    pub use_termest: bool,
    /// TermEst's `α` smoothing term.
    pub termest_alpha: f64,
    /// What the maintainer optimizes (speed, quality, or both).
    pub objective: MaintenanceObjective,
}

impl MaintenanceConfig {
    /// The paper's live-experiment configuration: `PM8`, TermEst on.
    pub fn pm8() -> Self {
        MaintenanceConfig {
            threshold_per_label_secs: 8.0,
            alpha: 0.05,
            min_tasks: 3,
            reserve_target: 3,
            use_termest: true,
            termest_alpha: 1.0,
            objective: MaintenanceObjective::Speed,
        }
    }

    /// Same but with a custom threshold (Figures 7–8 sweep 2–32 s).
    pub fn with_threshold(threshold_per_label_secs: f64) -> Self {
        MaintenanceConfig { threshold_per_label_secs, ..Self::pm8() }
    }
}

/// Full configuration of a labeling run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// `Np`: retainer-pool size.
    pub pool_size: usize,
    /// `Ng`: records grouped into one HIT (Simple=1, Medium=5,
    /// Complex=10).
    pub ng: u32,
    /// Number of classes in the labeling task.
    pub n_classes: u32,
    /// Quality-control quorum: answers required per task (1 = no
    /// redundancy).
    pub quorum: u32,
    /// Straggler mitigation; `None` disables (NoSM).
    pub straggler: Option<StragglerConfig>,
    /// Pool maintenance; `None` disables (PM∞).
    pub maintenance: Option<MaintenanceConfig>,
    /// Retainer-pool lifecycle knobs (replenishment floor, checkout
    /// strategy, reserve idle timeout, blackout generations). The default
    /// is inert: runs are byte-identical to the pre-lifecycle pool.
    pub pool: PoolConfig,
    /// Whether pool members abandon when idle past their patience.
    pub churn: bool,
    /// Platform mechanism parameters (pay rates, overheads).
    pub platform: PlatformConfig,
    /// Adversity layer: deterministic fault injection (worker churn,
    /// archetype overlays, outages, bursty arrivals, latency inflation).
    /// `None` is the benign run — bit-identical to a run predating the
    /// adversity machinery.
    pub adversity: Option<crate::adversity::AdversityConfig>,
    /// Observability (metrics registry + flight recorder). Disabled by
    /// default; an enabled run records events and metrics but draws zero
    /// extra RNG values, so the simulation itself is unperturbed.
    pub obs: ObsConfig,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            pool_size: 15,
            ng: 5,
            n_classes: 2,
            quorum: 1,
            straggler: None,
            maintenance: None,
            pool: PoolConfig::default(),
            churn: true,
            platform: PlatformConfig::default(),
            adversity: None,
            obs: ObsConfig::default(),
            seed: 0,
        }
    }
}

impl RunConfig {
    /// Validate invariants; called by the runner at construction.
    pub fn validate(&self) {
        assert!(self.pool_size > 0, "pool_size must be positive");
        assert!(self.ng >= 1, "ng must be >= 1");
        assert!(self.n_classes >= 2, "n_classes must be >= 2");
        assert!(self.quorum >= 1, "quorum must be >= 1");
        if let Some(m) = &self.maintenance {
            assert!(m.threshold_per_label_secs > 0.0, "PMl must be positive");
            assert!((0.0..1.0).contains(&m.alpha), "alpha in (0,1)");
            assert!(m.termest_alpha >= 0.0, "termest alpha >= 0");
        }
        if let Some(min) = self.pool.min_size {
            assert!((1..=self.pool_size).contains(&min), "pool.min_size must be in 1..=pool_size");
        }
        if let Some(t) = self.pool.idle_timeout {
            assert!(t > clamshell_sim::time::SimDuration::ZERO, "pool.idle_timeout must be > 0");
        }
        if let Some(a) = &self.adversity {
            a.validate();
        }
        self.obs.validate();
    }

    /// Convenience: layer an adversity configuration on.
    pub fn with_adversity(mut self, adversity: crate::adversity::AdversityConfig) -> Self {
        self.adversity = Some(adversity);
        self
    }

    /// Batch size for a given pool-to-batch ratio `R = Np / Nbatch`
    /// (Table 3), rounded and floored at 1.
    pub fn batch_size_for_ratio(&self, r: f64) -> usize {
        assert!(r > 0.0, "ratio must be positive");
        ((self.pool_size as f64 / r).round() as usize).max(1)
    }

    /// Convenience: enable straggler mitigation with defaults.
    pub fn with_straggler(mut self) -> Self {
        self.straggler = Some(StragglerConfig::default());
        self
    }

    /// Convenience: enable PM8 pool maintenance.
    pub fn with_maintenance(mut self) -> Self {
        self.maintenance = Some(MaintenanceConfig::pm8());
        self
    }

    /// Convenience: set the pool lifecycle knobs.
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        RunConfig::default().validate();
        RunConfig::default().with_straggler().with_maintenance().validate();
    }

    #[test]
    fn ratio_to_batch_size() {
        let cfg = RunConfig { pool_size: 15, ..Default::default() };
        assert_eq!(cfg.batch_size_for_ratio(1.0), 15);
        assert_eq!(cfg.batch_size_for_ratio(3.0), 5);
        assert_eq!(cfg.batch_size_for_ratio(0.75), 20);
        assert_eq!(cfg.batch_size_for_ratio(100.0), 1);
    }

    #[test]
    #[should_panic]
    fn zero_pool_rejected() {
        RunConfig { pool_size: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic]
    fn bad_threshold_rejected() {
        RunConfig {
            maintenance: Some(MaintenanceConfig::with_threshold(0.0)),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn pm8_matches_paper() {
        let m = MaintenanceConfig::pm8();
        assert_eq!(m.threshold_per_label_secs, 8.0);
        assert!(m.use_termest);
    }

    #[test]
    fn pool_lifecycle_knobs_validate() {
        RunConfig {
            pool_size: 8,
            pool: PoolConfig {
                min_size: Some(4),
                strategy: CheckoutStrategy::Lifo,
                idle_timeout: Some(clamshell_sim::time::SimDuration::from_secs(60)),
                generations: true,
            },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn pool_min_size_above_pool_size_rejected() {
        RunConfig {
            pool_size: 4,
            pool: PoolConfig { min_size: Some(5), ..Default::default() },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn zero_idle_timeout_rejected() {
        RunConfig {
            pool: PoolConfig {
                idle_timeout: Some(clamshell_sim::time::SimDuration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        }
        .validate();
    }
}
