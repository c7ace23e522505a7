//! Streaming and batch statistics.
//!
//! Pool maintenance decides evictions from *empirical* per-worker latency
//! estimates ([`OnlineStats`], a Welford accumulator) and a one-sided
//! significance test against the latency threshold `PMℓ`
//! ([`OnlineStats::mean_exceeds`]). The experiment harness additionally
//! needs percentile summaries and empirical CDFs (Figures 2, 8, 9, 11, 12).

use crate::dist::standard_normal_cdf;

/// Numerically stable streaming mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Checkpoint encoding: the accumulator's exact state as three
    /// integer words `(n, mean_bits, m2_bits)`, floats as IEEE-754 bit
    /// patterns. Shard manifests persist these because decimal float
    /// formatting is not guaranteed to round-trip; the bit words are.
    pub fn to_words(&self) -> [u64; 3] {
        [self.n, self.mean.to_bits(), self.m2.to_bits()]
    }

    /// Rebuild an accumulator from [`Self::to_words`] output, bit-exact.
    pub fn from_words(words: [u64; 3]) -> Self {
        OnlineStats { n: words[0], mean: f64::from_bits(words[1]), m2: f64::from_bits(words[2]) }
    }

    /// One-sided z-test: is the true mean significantly **above**
    /// `threshold` at significance level `alpha`?
    ///
    /// This is the eviction test of pool maintenance (§4.2): a worker is a
    /// removal candidate when its empirical latency is "significantly above
    /// `PMℓ` (determined using a one-sided significance test)". With fewer
    /// than `min_n` observations we refuse to flag (not enough evidence),
    /// mirroring the paper's smoothing concerns for short histories.
    pub fn mean_exceeds(&self, threshold: f64, alpha: f64, min_n: u64) -> bool {
        if self.n < min_n.max(1) {
            return false;
        }
        if self.n == 1 {
            // Single observation: no variance estimate; fall back to a raw
            // comparison only if min_n allows it.
            return self.mean > threshold;
        }
        let se = (self.variance() / self.n as f64).sqrt();
        if se == 0.0 {
            return self.mean > threshold;
        }
        let z = (self.mean - threshold) / se;
        // p-value for H1: mean > threshold.
        let p = 1.0 - standard_normal_cdf(z);
        p < alpha
    }
}

/// A batch summary of a sample: count, mean, std, min/max, percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarize a sample. Returns a zeroed summary for an empty slice.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut acc = OnlineStats::new();
        for &x in xs {
            acc.push(x);
        }
        Summary {
            n: xs.len(),
            mean: acc.mean(),
            std: acc.std(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

/// Percentile of an unsorted sample, `p ∈ [0, 1]`, linear interpolation.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted sample (linear interpolation between
/// closest ranks).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile p out of range: {p}");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

/// Empirical CDF: returns `(sorted values, cumulative probabilities)`.
/// This is the plotting primitive behind Figure 2.
pub fn ecdf(xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let probs = (1..=n).map(|i| i as f64 / n as f64).collect();
    (sorted, probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut acc = OnlineStats::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        acc.push(3.5);
        assert_eq!(acc.mean(), 3.5);
        assert_eq!(acc.variance(), 0.0);
    }

    #[test]
    fn words_round_trip_is_bit_exact() {
        let mut acc = OnlineStats::new();
        for i in 0..17 {
            acc.push((i as f64).exp() * 0.1 + 1.0 / 3.0);
        }
        let back = OnlineStats::from_words(acc.to_words());
        assert_eq!(back.to_words(), acc.to_words());
        assert_eq!(back.count(), acc.count());
        assert_eq!(back.mean().to_bits(), acc.mean().to_bits());
        assert_eq!(back.variance().to_bits(), acc.variance().to_bits());
        // Empty round-trips too.
        assert_eq!(OnlineStats::from_words(OnlineStats::new().to_words()), OnlineStats::new());
    }

    #[test]
    fn mean_exceeds_detects_clearly_slow_worker() {
        // Worker mean 12s, threshold 8s, tight variance: should flag.
        let mut acc = OnlineStats::new();
        for i in 0..20 {
            acc.push(12.0 + (i % 3) as f64 * 0.5);
        }
        assert!(acc.mean_exceeds(8.0, 0.05, 5));
    }

    #[test]
    fn mean_exceeds_does_not_flag_fast_worker() {
        let mut acc = OnlineStats::new();
        for i in 0..20 {
            acc.push(3.0 + (i % 4) as f64 * 0.3);
        }
        assert!(!acc.mean_exceeds(8.0, 0.05, 5));
    }

    #[test]
    fn mean_exceeds_requires_min_samples() {
        let mut acc = OnlineStats::new();
        acc.push(100.0);
        acc.push(110.0);
        assert!(!acc.mean_exceeds(8.0, 0.05, 5), "only 2 of 5 required samples");
        for _ in 0..3 {
            acc.push(105.0);
        }
        assert!(acc.mean_exceeds(8.0, 0.05, 5));
    }

    #[test]
    fn mean_exceeds_borderline_needs_evidence() {
        // Mean barely above threshold with large variance: should NOT flag.
        let mut acc = OnlineStats::new();
        for i in 0..10 {
            acc.push(8.2 + if i % 2 == 0 { 6.0 } else { -6.0 });
        }
        assert!(!acc.mean_exceeds(8.0, 0.05, 5));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_known_sample() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn ecdf_monotone() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let (vals, probs) = ecdf(&xs);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(probs.windows(2).all(|w| w[0] <= w[1]));
        assert!((probs[4] - 1.0).abs() < 1e-12);
    }
}
