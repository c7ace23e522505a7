//! Platform-level fault injection: archetype overlays and heavy-tailed
//! latency inflation.
//!
//! These are the [`SimPlatform`](crate::SimPlatform) half of the
//! adversity machinery: perturbations of *who gets recruited* and *how
//! long submissions take* that compose with the runner-level faults
//! (churn, outages, bursts) defined in `clamshell-core`.
//!
//! Determinism: each fault kind draws from its own stream derived via
//! [`clamshell_sim::faults::fault_stream`], so enabling one fault never
//! shifts the draws of another fault or of any benign stream — a run
//! with `CrowdFaults::default()` is bit-identical to a run constructed
//! without faults at all.

use clamshell_sim::dist::{LogNormal, Sample};
use clamshell_sim::rng::Rng;

/// Heavy-tailed latency inflation: independently of the worker, each
/// sampled assignment duration is multiplied by a log-normal factor with
/// probability `prob`. Models platform-side slowdowns (page loads, task
/// queue hiccups) that fatten the latency tail beyond what any worker
/// profile produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyInflation {
    /// Probability an assignment's duration is inflated.
    pub prob: f64,
    /// Median of the log-normal inflation multiplier.
    pub mult_median: f64,
    /// Log-space sigma of the multiplier.
    pub mult_sigma: f64,
}

impl LatencyInflation {
    /// Validate parameter ranges.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.prob), "inflation prob in [0,1]");
        assert!(self.mult_median >= 1.0, "inflation must not speed tasks up");
        assert!(self.mult_sigma >= 0.0, "sigma must be non-negative");
    }
}

/// The platform-level fault set handed to
/// [`SimPlatform::with_faults`](crate::SimPlatform::with_faults).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrowdFaults {
    /// Archetype overlay applied per recruited worker.
    pub archetypes: Option<clamshell_trace::ArchetypeMix>,
    /// Heavy-tailed duration inflation applied per assignment.
    pub inflation: Option<LatencyInflation>,
}

impl CrowdFaults {
    /// No faults — behaves exactly like a fault-free platform.
    pub const NONE: CrowdFaults = CrowdFaults { archetypes: None, inflation: None };

    /// Whether any fault is active.
    pub fn is_active(&self) -> bool {
        self.archetypes.is_some() || self.inflation.is_some()
    }

    /// Validate all configured faults.
    pub fn validate(&self) {
        if let Some(m) = &self.archetypes {
            m.validate();
        }
        if let Some(i) = &self.inflation {
            i.validate();
        }
    }
}

/// Live fault state carried by the platform: one dedicated RNG stream
/// per fault kind.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) faults: CrowdFaults,
    archetype_rng: Rng,
    inflation_rng: Rng,
}

/// Stream labels for [`clamshell_sim::faults::fault_stream`].
const STREAM_ARCHETYPE: u64 = 0xA2C4_0001;
const STREAM_INFLATION: u64 = 0xA2C4_0002;

impl FaultState {
    pub(crate) fn new(faults: CrowdFaults, seed: u64) -> Self {
        faults.validate();
        FaultState {
            faults,
            archetype_rng: clamshell_sim::faults::fault_stream(seed, STREAM_ARCHETYPE),
            inflation_rng: clamshell_sim::faults::fault_stream(seed, STREAM_INFLATION),
        }
    }

    /// Apply the archetype overlay to a freshly sampled profile.
    pub(crate) fn overlay_profile(
        &mut self,
        base: clamshell_trace::WorkerProfile,
    ) -> clamshell_trace::WorkerProfile {
        match &self.faults.archetypes {
            Some(mix) => match mix.pick(&mut self.archetype_rng) {
                Some(arch) => arch.profile(&base, &mut self.archetype_rng),
                None => base,
            },
            None => base,
        }
    }

    /// Inflation multiplier for one assignment (1.0 when the fault does
    /// not fire).
    pub(crate) fn duration_multiplier(&mut self) -> f64 {
        match &self.faults.inflation {
            Some(inf) if self.inflation_rng.bernoulli(inf.prob) => {
                LogNormal::new(inf.mult_median.ln(), inf.mult_sigma)
                    .sample(&mut self.inflation_rng)
                    .max(1.0)
            }
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let mut fs = FaultState::new(CrowdFaults::NONE, 7);
        assert!(!fs.faults.is_active());
        assert_eq!(fs.duration_multiplier(), 1.0);
        let p = clamshell_trace::WorkerProfile::fixed(4.0, 1.0, 0.9);
        assert_eq!(fs.overlay_profile(p), p);
    }

    #[test]
    fn inflation_fires_at_configured_rate() {
        let inf = LatencyInflation { prob: 0.2, mult_median: 8.0, mult_sigma: 0.5 };
        let mut fs = FaultState::new(CrowdFaults { inflation: Some(inf), ..CrowdFaults::NONE }, 11);
        let n = 20_000;
        let hits = (0..n).filter(|_| fs.duration_multiplier() > 1.0).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "hit rate={frac}");
    }

    #[test]
    #[should_panic]
    fn speedup_inflation_rejected() {
        LatencyInflation { prob: 0.5, mult_median: 0.5, mult_sigma: 0.1 }.validate();
    }
}
