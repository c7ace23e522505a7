//! Probability distributions for the worker model.
//!
//! The paper's simulator draws each worker's task latency i.i.d. from
//! `N(μ_i, σ_i²)` and models population-level heterogeneity with heavy
//! right tails (per-worker means span tens of seconds to hours). We
//! implement exactly the distributions that model needs; `rand_distr` is
//! not on the offline allow-list and rolling our own keeps streams stable.
//!
//! All distributions are parameter-validated at construction and sample via
//! [`crate::rng::Rng`].

use crate::rng::Rng;

/// A distribution over `f64` that can be sampled with an [`Rng`].
pub trait Sample {
    /// Draw one variate.
    fn sample(&self, rng: &mut Rng) -> f64;
}

/// Normal (Gaussian) distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Create a normal distribution. `std` must be finite and non-negative.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean.is_finite(), "Normal mean must be finite");
        assert!(std.is_finite() && std >= 0.0, "Normal std must be >= 0");
        Normal { mean, std }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.std * rng.next_gaussian()
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
///
/// This is the canonical heavy-tailed model for crowd-worker latencies; the
/// paper's medical-deployment statistics (median minutes, 90th percentiles
/// of hours) are matched by `clamshell-trace` with log-normal populations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "LogNormal mu must be finite");
        assert!(sigma.is_finite() && sigma >= 0.0, "LogNormal sigma must be >= 0");
        LogNormal { mu, sigma }
    }

    /// Construct a log-normal from its *median* and a target upper
    /// `quantile` value at probability `p` (e.g. median 240 s and p90 of
    /// 3960 s). This is how trace calibration specifies populations.
    pub fn from_median_quantile(median: f64, p: f64, value_at_p: f64) -> Self {
        assert!(median > 0.0 && value_at_p > 0.0, "quantile anchors must be positive");
        assert!((0.5..1.0).contains(&p), "p must be in [0.5, 1)");
        let z = standard_normal_quantile(p);
        let mu = median.ln();
        let sigma = ((value_at_p.ln() - mu) / z).max(0.0);
        LogNormal { mu, sigma }
    }

    /// Median of the distribution (`exp(mu)`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Mean of the distribution (`exp(mu + sigma²/2)`).
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// Underlying normal's `mu`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Underlying normal's `sigma`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The `p`-quantile of the distribution.
    pub fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * standard_normal_quantile(p)).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * rng.next_gaussian()).exp()
    }
}

/// Normal distribution truncated below at `floor` (resampling would bias
/// the mean badly for aggressive floors, so we clamp instead — matching
/// how the paper's simulator must handle negative latency draws).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncNormal {
    inner: Normal,
    floor: f64,
}

impl TruncNormal {
    /// Create a floored normal distribution.
    pub fn new(mean: f64, std: f64, floor: f64) -> Self {
        assert!(floor.is_finite(), "floor must be finite");
        TruncNormal { inner: Normal::new(mean, std), floor }
    }

    /// The floor value.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Mean of the *untruncated* normal.
    pub fn raw_mean(&self) -> f64 {
        self.inner.mean()
    }
}

impl Sample for TruncNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.inner.sample(rng).max(self.floor)
    }
}

/// Exponential distribution with the given rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create from a rate parameter (`> 0`).
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "Exponential rate must be > 0");
        Exponential { rate }
    }

    /// Create from the mean (`> 0`).
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "Exponential mean must be > 0");
        Exponential { rate: 1.0 / mean }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
}

/// Beta distribution, used for worker accuracies `λ_i ∈ (0, 1)`.
///
/// Sampled via Cheng's rejection algorithms (BB/BC), valid for all
/// `alpha, beta > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Create a Beta(alpha, beta) distribution; both parameters `> 0`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "Beta alpha must be > 0");
        assert!(beta.is_finite() && beta > 0.0, "Beta beta must be > 0");
        Beta { alpha, beta }
    }

    /// Distribution mean `alpha / (alpha + beta)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    fn sample_gamma(shape: f64, rng: &mut Rng) -> f64 {
        // Marsaglia & Tsang's method; boost for shape < 1.
        if shape < 1.0 {
            let u = rng.next_f64_open();
            return Self::sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = rng.next_gaussian();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.next_f64_open();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Sample for Beta {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let x = Self::sample_gamma(self.alpha, rng);
        let y = Self::sample_gamma(self.beta, rng);
        x / (x + y)
    }
}

/// Inverse CDF of the standard normal (Acklam's rational approximation,
/// max relative error ≈ 1.15e-9 — ample for calibration and the one-sided
/// significance tests in pool maintenance).
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// CDF of the standard normal, via `erf` (Abramowitz–Stegun 7.1.26,
/// |error| < 1.5e-7).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0);
        let mut rng = Rng::new(1);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 5.0).abs() < 0.03, "mean={mean}");
        assert!((var - 4.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::new(2.0, 0.5);
        let mut rng = Rng::new(2);
        let mut xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let median = xs[xs.len() / 2];
        assert!((median / d.median() - 1.0).abs() < 0.03, "median={median}");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean / d.mean() - 1.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn lognormal_from_median_quantile_hits_anchors() {
        // Anchors from the paper: per-worker median 240s, p90 of 3960s.
        let d = LogNormal::from_median_quantile(240.0, 0.9, 3960.0);
        assert!((d.median() - 240.0).abs() < 1e-9);
        assert!((d.quantile(0.9) / 3960.0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn trunc_normal_respects_floor() {
        let d = TruncNormal::new(1.0, 5.0, 0.25);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.25);
        }
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::from_mean(7.0);
        let mut rng = Rng::new(4);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean / 7.0 - 1.0).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn beta_moments_and_support() {
        let d = Beta::new(8.0, 2.0);
        let mut rng = Rng::new(5);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let (mean, _) = moments(&xs);
        assert!((mean - 0.8).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn beta_small_shape_supported() {
        let d = Beta::new(0.5, 0.5);
        let mut rng = Rng::new(6);
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn quantile_cdf_inverse_relationship() {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999] {
            let z = standard_normal_quantile(p);
            let back = standard_normal_cdf(z);
            assert!((back - p).abs() < 2e-4, "p={p} z={z} back={back}");
        }
    }

    #[test]
    fn quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((standard_normal_quantile(0.9) - 1.281552).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn normal_rejects_negative_std() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }
}
