//! Adversarial worker archetypes.
//!
//! The paper evaluates CLAMShell under a benign crowd; the related
//! crowdsourcing literature shows the populations that actually break
//! low-latency labeling — spammers who click through tasks at random,
//! adversarial annotators who answer *wrong* on purpose (Muhammadi et
//! al., "Crowd Labeling: a survey"), and distracted workers whose rapid
//! answers trade accuracy for speed (Krishna et al., "Embracing Error to
//! Enable Rapid Crowdsourcing"). An [`Archetype`] rewrites a sampled
//! [`WorkerProfile`] into one of those behaviours; an [`ArchetypeMix`]
//! decides, per recruited worker, whether any archetype applies.
//!
//! Determinism: archetype decisions draw from a **dedicated fault
//! stream** (see `clamshell_sim::faults`), never from the population or
//! worker generators — so layering archetypes onto a run leaves every
//! base profile and every unaffected worker's behaviour bit-identical.

use crate::profile::WorkerProfile;
use clamshell_sim::rng::Rng;

/// A behavioural overlay replacing a worker's generative profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// Clicks through tasks near-instantly with chance-level accuracy:
    /// the classic random spammer.
    Spammer,
    /// Deliberately answers wrong (accuracy far below chance) at normal
    /// speed — the worst case for redundancy-based quality control.
    Adversarial,
    /// Wanders off mid-session: normal accuracy, but tasks frequently
    /// stall for many multiples of the base latency.
    Sleepy,
}

impl Archetype {
    /// Rewrite `base` into this archetype's behaviour. Randomness (small
    /// per-worker jitter so archetype workers are not all clones) comes
    /// from the caller's dedicated fault stream.
    pub fn profile(&self, base: &WorkerProfile, rng: &mut Rng) -> WorkerProfile {
        match self {
            Archetype::Spammer => WorkerProfile {
                // Fast, consistent clicking near the physical floor.
                mean_latency: (base.min_label_secs * rng.range_f64(1.0, 1.6))
                    .max(base.min_label_secs),
                latency_std: 0.2,
                // Chance-level on binary tasks; `sample_label` treats this
                // as the probability of the *correct* answer, so 0.5 is
                // "uniformly random" in the dominant two-class setting.
                accuracy: rng.range_f64(0.45, 0.55),
                spike_prob: 0.0,
                spike_mult_median: 1.0,
                spike_mult_sigma: 0.0,
                ..*base
            },
            Archetype::Adversarial => WorkerProfile {
                // Normal pace, almost always wrong on purpose.
                accuracy: rng.range_f64(0.02, 0.10),
                ..*base
            },
            Archetype::Sleepy => WorkerProfile {
                mean_latency: base.mean_latency * 1.5,
                // Frequent, heavy stalls: over a third of tasks hit a
                // distraction spike an order of magnitude long.
                spike_prob: 0.35,
                spike_mult_median: 15.0,
                spike_mult_sigma: 0.8,
                ..*base
            },
        }
    }
}

/// Per-worker probabilities of each archetype replacing the sampled
/// base profile. The remainder (`1 − spammer − adversarial − sleepy`)
/// keeps the benign profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchetypeMix {
    /// Fraction of recruits who are spammers.
    pub spammer: f64,
    /// Fraction of recruits who are adversarial.
    pub adversarial: f64,
    /// Fraction of recruits who are sleepy.
    pub sleepy: f64,
}

impl ArchetypeMix {
    /// A mix with no archetypes (every recruit stays benign).
    pub const NONE: ArchetypeMix = ArchetypeMix { spammer: 0.0, adversarial: 0.0, sleepy: 0.0 };

    /// Only spammers, at the given fraction.
    pub fn spammers(frac: f64) -> Self {
        ArchetypeMix { spammer: frac, ..Self::NONE }
    }

    /// Only adversarial workers, at the given fraction.
    pub fn adversarial(frac: f64) -> Self {
        ArchetypeMix { adversarial: frac, ..Self::NONE }
    }

    /// Only sleepy workers, at the given fraction.
    pub fn sleepy(frac: f64) -> Self {
        ArchetypeMix { sleepy: frac, ..Self::NONE }
    }

    /// Check the fractions form a sub-probability distribution.
    pub fn validate(&self) {
        for (name, f) in
            [("spammer", self.spammer), ("adversarial", self.adversarial), ("sleepy", self.sleepy)]
        {
            assert!((0.0..=1.0).contains(&f), "{name} fraction must be in [0,1], got {f}");
        }
        let total = self.spammer + self.adversarial + self.sleepy;
        assert!(total <= 1.0 + 1e-12, "archetype fractions must sum to <= 1, got {total}");
    }

    /// Decide one recruit's archetype. Consumes exactly one draw from
    /// `rng` regardless of the outcome, so the fault stream stays aligned
    /// across mixes with different fractions.
    pub fn pick(&self, rng: &mut Rng) -> Option<Archetype> {
        let u = rng.next_f64();
        if u < self.spammer {
            Some(Archetype::Spammer)
        } else if u < self.spammer + self.adversarial {
            Some(Archetype::Adversarial)
        } else if u < self.spammer + self.adversarial + self.sleepy {
            Some(Archetype::Sleepy)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkerProfile {
        WorkerProfile::fixed(5.0, 1.0, 0.9)
    }

    #[test]
    fn pick_respects_fractions() {
        let mix = ArchetypeMix { spammer: 0.2, adversarial: 0.1, sleepy: 0.3 };
        mix.validate();
        let mut rng = Rng::new(1);
        let n = 50_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match mix.pick(&mut rng) {
                Some(Archetype::Spammer) => counts[0] += 1,
                Some(Archetype::Adversarial) => counts[1] += 1,
                Some(Archetype::Sleepy) => counts[2] += 1,
                None => counts[3] += 1,
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.2).abs() < 0.01);
        assert!((frac(counts[1]) - 0.1).abs() < 0.01);
        assert!((frac(counts[2]) - 0.3).abs() < 0.01);
        assert!((frac(counts[3]) - 0.4).abs() < 0.01);
    }

    #[test]
    fn pick_consumes_one_draw_regardless_of_outcome() {
        // Different mixes must leave the stream in the same position.
        let run = |mix: ArchetypeMix| {
            let mut rng = Rng::new(9);
            for _ in 0..100 {
                mix.pick(&mut rng);
            }
            rng.next_u64()
        };
        assert_eq!(run(ArchetypeMix::NONE), run(ArchetypeMix::spammers(0.9)));
    }

    #[test]
    fn spammer_is_fast_and_chance_level() {
        let mut rng = Rng::new(2);
        let p = Archetype::Spammer.profile(&base(), &mut rng);
        assert!(p.mean_latency < base().mean_latency / 2.0);
        assert!((0.45..=0.55).contains(&p.accuracy));
        assert_eq!(p.spike_prob, 0.0);
    }

    #[test]
    fn adversarial_is_worse_than_chance() {
        let mut rng = Rng::new(3);
        let p = Archetype::Adversarial.profile(&base(), &mut rng);
        assert!(p.accuracy < 0.15);
        assert_eq!(p.mean_latency, base().mean_latency, "speed unchanged");
    }

    #[test]
    fn sleepy_keeps_accuracy_but_stalls() {
        let mut rng = Rng::new(4);
        let p = Archetype::Sleepy.profile(&base(), &mut rng);
        assert_eq!(p.accuracy, base().accuracy);
        assert!(p.spike_prob > 0.3);
        assert!(p.spike_mult_median >= 10.0);
    }

    #[test]
    #[should_panic]
    fn oversubscribed_mix_rejected() {
        ArchetypeMix { spammer: 0.6, adversarial: 0.6, sleepy: 0.0 }.validate();
    }
}
