//! Adversity: composable fault injection for a labeling run.
//!
//! The paper stress-tests CLAMShell only under benign crowd behaviour.
//! [`AdversityConfig`] layers the failure regimes that the related
//! crowdsourcing literature shows actually break low-latency labeling
//! onto a run — each fault independently toggleable, and all of them
//! composable:
//!
//! | Fault | What it perturbs | Where it lives |
//! |-------|------------------|----------------|
//! | [`ChurnFault`] | Workers walk out mid-assignment and leave the pool | runner (`Event::Walkout`) |
//! | [`OutageFault`] | Transient platform blackouts defer submissions & arrivals | runner + [`clamshell_sim::faults::OutageSchedule`] |
//! | [`BurstFault`] | Bursty task arrivals reshape batch sizes | [`run_batched`](crate::runner::run_batched) |
//! | [`ArchetypeMix`] | Spammer / adversarial / sleepy worker overlays | platform ([`clamshell_crowd::faults`]) |
//! | [`LatencyInflation`] | Heavy-tailed per-assignment slowdowns | platform ([`clamshell_crowd::faults`]) |
//!
//! Determinism: every fault draws exclusively from a dedicated stream
//! derived with [`clamshell_sim::faults::fault_stream`], extending the
//! determinism contract in ARCHITECTURE.md — enabling a fault never
//! perturbs the draws of any benign stream or of any other fault, and a
//! run with `adversity: None` is bit-identical to a pre-adversity run.
//! The named scenario catalog over these knobs lives in the
//! `clamshell-scenarios` crate.

use clamshell_crowd::LatencyInflation;
use clamshell_trace::ArchetypeMix;

/// Mid-assignment worker churn: with probability `walkout_prob`, a
/// dispatched assignment is silently abandoned partway through — the
/// worker walks out of the retainer pool (no answer, no submission) and
/// the runner must re-recruit and re-cover the task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnFault {
    /// Probability that any given assignment ends in a walkout.
    pub walkout_prob: f64,
    /// Walkouts happen after a uniform fraction of the planned duration
    /// in `[min_frac, max_frac]`.
    pub min_frac: f64,
    /// See `min_frac`.
    pub max_frac: f64,
}

impl Default for ChurnFault {
    fn default() -> Self {
        ChurnFault { walkout_prob: 0.15, min_frac: 0.2, max_frac: 0.9 }
    }
}

impl ChurnFault {
    fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.walkout_prob), "walkout_prob in [0,1]");
        assert!(
            0.0 < self.min_frac && self.min_frac <= self.max_frac && self.max_frac <= 1.0,
            "need 0 < min_frac <= max_frac <= 1"
        );
    }
}

/// Transient platform outages: alternating up-time/blackout windows
/// (exponential around the configured means). During a blackout the
/// platform accepts no submissions and admits no recruits — affected
/// events are deferred to the recovery instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageFault {
    /// Mean seconds of up-time between outages.
    pub mean_uptime_secs: f64,
    /// Mean seconds an outage lasts.
    pub mean_outage_secs: f64,
}

impl Default for OutageFault {
    fn default() -> Self {
        OutageFault { mean_uptime_secs: 120.0, mean_outage_secs: 45.0 }
    }
}

impl OutageFault {
    fn validate(&self) {
        assert!(self.mean_uptime_secs > 0.0, "mean up-time must be positive");
        assert!(self.mean_outage_secs > 0.0, "mean outage must be positive");
    }
}

/// Bursty task arrivals: instead of the caller's fixed batch size,
/// [`run_batched`](crate::runner::run_batched) splits the task stream
/// into bursts whose sizes are drawn uniformly from
/// `[min_batch, max_batch]` on a dedicated stream — alternating
/// trickles and floods, the arrival pattern interactive front-ends
/// actually produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstFault {
    /// Smallest burst size.
    pub min_batch: usize,
    /// Largest burst size.
    pub max_batch: usize,
}

impl Default for BurstFault {
    fn default() -> Self {
        BurstFault { min_batch: 1, max_batch: 12 }
    }
}

impl BurstFault {
    fn validate(&self) {
        assert!(
            0 < self.min_batch && self.min_batch <= self.max_batch,
            "need 0 < min_batch <= max_batch"
        );
    }
}

/// The full adversity layer of a run: any subset of the faults, all
/// deterministic, all composable. See the module docs for the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdversityConfig {
    /// Spammer / adversarial / sleepy worker overlays (platform level).
    pub archetypes: Option<ArchetypeMix>,
    /// Heavy-tailed per-assignment latency inflation (platform level).
    pub inflation: Option<LatencyInflation>,
    /// Mid-assignment walkouts and pool re-recruitment (runner level).
    pub churn: Option<ChurnFault>,
    /// Transient platform blackouts (runner level).
    pub outage: Option<OutageFault>,
    /// Bursty task arrivals (batching level).
    pub bursts: Option<BurstFault>,
}

impl AdversityConfig {
    /// No faults at all (identical to `adversity: None`).
    pub const NONE: AdversityConfig = AdversityConfig {
        archetypes: None,
        inflation: None,
        churn: None,
        outage: None,
        bursts: None,
    };

    /// Validate every configured fault; called by
    /// [`RunConfig::validate`](crate::RunConfig::validate).
    pub fn validate(&self) {
        if let Some(m) = &self.archetypes {
            m.validate();
        }
        if let Some(i) = &self.inflation {
            i.validate();
        }
        if let Some(c) = &self.churn {
            c.validate();
        }
        if let Some(o) = &self.outage {
            o.validate();
        }
        if let Some(b) = &self.bursts {
            b.validate();
        }
    }

    /// The platform-level slice of this configuration.
    pub fn crowd_faults(&self) -> clamshell_crowd::CrowdFaults {
        clamshell_crowd::CrowdFaults { archetypes: self.archetypes, inflation: self.inflation }
    }
}

/// Stream labels for the runner-level fault RNGs (platform-level labels
/// live in `clamshell-crowd`).
pub(crate) mod streams {
    /// Mid-assignment walkout decisions.
    pub const CHURN: u64 = 0xC0DE_0001;
    /// Burst size draws.
    pub const BURSTS: u64 = 0xC0DE_0002;
    /// Reserve idle-timeout jitter (pool lifecycle).
    pub const POOL_IDLE: u64 = 0xC0DE_0003;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_compose() {
        AdversityConfig::NONE.validate();
        AdversityConfig {
            archetypes: Some(ArchetypeMix::spammers(0.3)),
            inflation: Some(LatencyInflation { prob: 0.1, mult_median: 8.0, mult_sigma: 0.8 }),
            churn: Some(ChurnFault::default()),
            outage: Some(OutageFault::default()),
            bursts: Some(BurstFault::default()),
        }
        .validate();
    }

    #[test]
    fn crowd_slice_carries_platform_faults_only() {
        let adv = AdversityConfig {
            archetypes: Some(ArchetypeMix::sleepy(0.2)),
            churn: Some(ChurnFault::default()),
            ..AdversityConfig::NONE
        };
        let crowd = adv.crowd_faults();
        assert!(crowd.archetypes.is_some());
        assert!(crowd.inflation.is_none());
    }

    #[test]
    #[should_panic]
    fn zero_min_frac_rejected() {
        ChurnFault { walkout_prob: 0.1, min_frac: 0.0, max_frac: 0.5 }.validate();
    }

    #[test]
    #[should_panic]
    fn inverted_burst_bounds_rejected() {
        BurstFault { min_batch: 9, max_batch: 3 }.validate();
    }
}
