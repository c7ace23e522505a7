//! Per-worker generative profiles.

use clamshell_sim::dist::{Sample, TruncNormal};
use clamshell_sim::rng::Rng;
use clamshell_sim::time::SimDuration;

/// The generative model of a single crowd worker, mirroring the per-worker
/// statistics the paper extracts from its deployment traces (§6.1):
/// mean labeling latency `μ_i`, latency standard deviation `σ_i`, and mean
/// accuracy `λ_i`. Latencies here are **per record label, in seconds**; a
/// task grouping `Ng` records takes the sum of `Ng` record draws
/// (mean `Ng·μ_i`, std `√Ng·σ_i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerProfile {
    /// Mean per-label work latency `μ_i`, seconds.
    pub mean_latency: f64,
    /// Per-label latency standard deviation `σ_i`, seconds.
    pub latency_std: f64,
    /// Probability of answering a record correctly, `λ_i ∈ [0, 1]`.
    pub accuracy: f64,
    /// How long the worker will sit idle in a retainer pool before
    /// abandoning it.
    pub patience: SimDuration,
    /// Physical floor on per-label time, seconds: even the fastest worker
    /// needs this long to read and click (the reason PMℓ = 2s "goes beyond
    /// the point where even fast workers are able to complete tasks",
    /// Fig. 8).
    pub min_label_secs: f64,
    /// Probability that a task hits a distraction spike. §4.1 observes
    /// that "even workers who are very fast on average (∼1 minute) can
    /// take as long as an hour or more to complete some tasks" — a
    /// truncated normal alone cannot produce those outliers, so task
    /// latency is a mixture: with probability `spike_prob` the sampled
    /// duration is multiplied by a heavy log-normal factor.
    pub spike_prob: f64,
    /// Median of the spike multiplier (log-normal).
    pub spike_mult_median: f64,
    /// Log-space sigma of the spike multiplier.
    pub spike_mult_sigma: f64,
}

impl WorkerProfile {
    /// A deterministic profile useful in unit tests (no spikes).
    pub fn fixed(mean_latency: f64, latency_std: f64, accuracy: f64) -> Self {
        WorkerProfile {
            mean_latency,
            latency_std,
            accuracy,
            patience: SimDuration::from_mins(60),
            min_label_secs: 0.5,
            spike_prob: 0.0,
            spike_mult_median: 1.0,
            spike_mult_sigma: 0.0,
        }
    }

    /// The same profile with a straggler-spike mixture enabled.
    pub fn with_spikes(mut self, prob: f64, mult_median: f64, mult_sigma: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        assert!(mult_median >= 1.0 && mult_sigma >= 0.0);
        self.spike_prob = prob;
        self.spike_mult_median = mult_median;
        self.spike_mult_sigma = mult_sigma;
        self
    }

    /// Latency distribution for a task that groups `ng` records
    /// (`Simple = 1`, `Medium = 5`, `Complex = 10` in Table 3).
    pub fn task_latency_dist(&self, ng: u32) -> TruncNormal {
        let ng = ng.max(1) as f64;
        TruncNormal::new(
            self.mean_latency * ng,
            self.latency_std * ng.sqrt(),
            self.min_label_secs * ng,
        )
    }

    /// Sample the wall-clock seconds this worker takes for a task of `ng`
    /// records, including the occasional distraction spike.
    pub fn sample_task_secs(&self, ng: u32, rng: &mut Rng) -> f64 {
        let base = self.task_latency_dist(ng).sample(rng);
        if self.spike_prob > 0.0 && rng.bernoulli(self.spike_prob) {
            let mult = clamshell_sim::dist::LogNormal::new(
                self.spike_mult_median.ln(),
                self.spike_mult_sigma,
            )
            .sample(rng)
            .max(1.0);
            base * mult
        } else {
            base
        }
    }

    /// Sample the task duration as a [`SimDuration`].
    pub fn sample_task_duration(&self, ng: u32, rng: &mut Rng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_task_secs(ng, rng))
    }

    /// Sample one label for a record whose true class is `truth`, out of
    /// `n_classes`. Correct with probability `λ_i`, otherwise uniform over
    /// the wrong classes (the paper's error model: "return the correct
    /// label with probability λi and the incorrect label with probability
    /// 1 − λi").
    pub fn sample_label(&self, truth: u32, n_classes: u32, rng: &mut Rng) -> u32 {
        debug_assert!(n_classes >= 2, "need at least two classes");
        debug_assert!(truth < n_classes, "truth out of range");
        if rng.bernoulli(self.accuracy) {
            truth
        } else {
            // Uniform over the n_classes - 1 wrong answers.
            let wrong = rng.next_below(n_classes as u64 - 1) as u32;
            if wrong >= truth {
                wrong + 1
            } else {
                wrong
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_latency_scales_with_ng() {
        let p = WorkerProfile::fixed(4.0, 1.0, 0.9);
        let d1 = p.task_latency_dist(1);
        let d10 = p.task_latency_dist(10);
        assert!((d1.raw_mean() - 4.0).abs() < 1e-12);
        assert!((d10.raw_mean() - 40.0).abs() < 1e-12);
        assert!(d10.floor() > d1.floor());
    }

    #[test]
    fn sampled_latency_respects_floor() {
        let p = WorkerProfile::fixed(1.0, 10.0, 0.9); // huge variance
        let mut rng = Rng::new(1);
        for _ in 0..5000 {
            assert!(p.sample_task_secs(2, &mut rng) >= 1.0);
        }
    }

    #[test]
    fn sampled_mean_close_to_profile_mean() {
        let p = WorkerProfile::fixed(6.0, 1.5, 0.9);
        let mut rng = Rng::new(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.sample_task_secs(5, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 0.3, "mean={mean}");
    }

    #[test]
    fn spikes_produce_rare_large_outliers() {
        let p = WorkerProfile::fixed(4.0, 0.5, 0.9).with_spikes(0.05, 6.0, 0.5);
        let mut rng = Rng::new(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample_task_secs(1, &mut rng)).collect();
        let outliers = samples.iter().filter(|&&s| s > 12.0).count() as f64 / n as f64;
        // Roughly spike_prob of tasks should blow well past 3x the mean...
        assert!((0.02..0.08).contains(&outliers), "outliers={outliers}");
        // ...and some should be extreme (>10x mean), which the truncated
        // normal alone could never produce with std = 0.5.
        assert!(samples.iter().any(|&s| s > 40.0));
        // Median is unaffected by rare spikes.
        let med = clamshell_sim::stats::percentile(&samples, 0.5);
        assert!((med - 4.0).abs() < 0.3, "median={med}");
    }

    #[test]
    fn no_spikes_by_default_in_fixed_profiles() {
        let p = WorkerProfile::fixed(4.0, 0.5, 0.9);
        let mut rng = Rng::new(8);
        for _ in 0..20_000 {
            assert!(p.sample_task_secs(1, &mut rng) < 10.0);
        }
    }

    #[test]
    fn label_accuracy_matches_lambda() {
        let p = WorkerProfile::fixed(4.0, 1.0, 0.8);
        let mut rng = Rng::new(3);
        let n = 50_000;
        let correct = (0..n).filter(|_| p.sample_label(3, 10, &mut rng) == 3).count();
        let rate = correct as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn wrong_labels_are_uniform_and_never_truth() {
        let p = WorkerProfile::fixed(4.0, 1.0, 0.0); // always wrong
        let mut rng = Rng::new(4);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            let l = p.sample_label(2, 4, &mut rng);
            assert_ne!(l, 2);
            counts[l as usize] += 1;
        }
        assert_eq!(counts[2], 0);
        for &c in &[counts[0], counts[1], counts[3]] {
            assert!((12_000..14_700).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn binary_wrong_label_is_the_other_class() {
        let p = WorkerProfile::fixed(4.0, 1.0, 0.0);
        let mut rng = Rng::new(5);
        for _ in 0..100 {
            assert_eq!(p.sample_label(0, 2, &mut rng), 1);
            assert_eq!(p.sample_label(1, 2, &mut rng), 0);
        }
    }
}
