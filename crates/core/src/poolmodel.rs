//! The closed-form pool-convergence model of §4.2.
//!
//! With a worker population split by the threshold `PMℓ` into a fast part
//! (probability mass `1 − q`, conditional mean `μ_f`) and a slow part
//! (mass `q`, conditional mean `μ_s`), replacing every slow worker after
//! each maintenance step with a fresh population draw gives a pool whose
//! expected mean latency after `n` steps is
//!
//! ```text
//! E[μ_n] = (1 − q^{n+1}) μ_f + q^{n+1} μ_s
//! ```
//!
//! which converges to `μ_f` — "the pool converges to the mean latency of
//! all workers below PMℓ". The reproduction harness overlays this curve on
//! simulated mean-pool-latency trajectories (Figure 6) and the integration
//! tests assert agreement.

/// Parameters of the two-part population split at `PMℓ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolModel {
    /// Probability a fresh draw is *slow* (mean latency above `PMℓ`).
    pub q: f64,
    /// Mean latency of the fast part.
    pub mu_f: f64,
    /// Mean latency of the slow part.
    pub mu_s: f64,
}

impl PoolModel {
    /// Construct and validate.
    pub fn new(q: f64, mu_f: f64, mu_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "q must be a probability");
        assert!(mu_f >= 0.0 && mu_s >= mu_f, "need mu_s >= mu_f >= 0");
        PoolModel { q, mu_f, mu_s }
    }

    /// Expected pool mean latency after `n` maintenance steps (step 0 is
    /// the initial random pool).
    pub fn expected_mpl(&self, n: u32) -> f64 {
        let qn = self.q.powi(n as i32 + 1);
        (1.0 - qn) * self.mu_f + qn * self.mu_s
    }

    /// The asymptote `μ_f`.
    pub fn limit(&self) -> f64 {
        self.mu_f
    }

    /// The initial pool mean `(1−q)·μ_f + q·μ_s`, i.e. `expected_mpl(0)`.
    /// The constructor enforces `μ_s ≥ μ_f`, so this is always ≥ `μ_f` —
    /// the identity is asserted in the tests rather than clamped here,
    /// where a clamp would silently mask a broken `expected_mpl(0)`.
    pub fn initial(&self) -> f64 {
        self.expected_mpl(0)
    }

    /// Number of maintenance steps until the expected MPL is within
    /// `eps` of the asymptote.
    pub fn steps_to_converge(&self, eps: f64) -> u32 {
        assert!(eps > 0.0);
        if self.q == 0.0 || self.mu_s == self.mu_f {
            return 0;
        }
        if self.q >= 1.0 {
            return u32::MAX;
        }
        // q^{n+1} (μs − μf) <= eps  ⇒  n+1 >= log(eps/(μs−μf)) / log q
        let ratio: f64 = eps / (self.mu_s - self.mu_f);
        if ratio >= 1.0 {
            return 0;
        }
        let n = (ratio.ln() / self.q.ln()).ceil() as u32;
        n.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_formula() {
        let m = PoolModel::new(0.4, 2.0, 10.0);
        // n = 0: (1 - q) μf + q μs
        assert!((m.expected_mpl(0) - (0.6 * 2.0 + 0.4 * 10.0)).abs() < 1e-12);
        // n = 1: (1 - q²) μf + q² μs
        assert!((m.expected_mpl(1) - ((1.0 - 0.16) * 2.0 + 0.16 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn monotone_decreasing_to_limit() {
        let m = PoolModel::new(0.5, 3.0, 20.0);
        let mut prev = f64::INFINITY;
        for n in 0..50 {
            let v = m.expected_mpl(n);
            assert!(v <= prev + 1e-12, "not monotone at {n}");
            assert!(v >= m.limit() - 1e-12);
            prev = v;
        }
        assert!((m.expected_mpl(60) - m.limit()).abs() < 1e-6);
    }

    #[test]
    fn degenerate_cases() {
        // q = 0: already all fast.
        let m = PoolModel::new(0.0, 2.0, 10.0);
        assert_eq!(m.expected_mpl(0), 2.0);
        assert_eq!(m.steps_to_converge(0.1), 0);
        // q = 1: never converges.
        let m = PoolModel::new(1.0, 2.0, 10.0);
        assert_eq!(m.expected_mpl(100), 10.0);
        assert_eq!(m.steps_to_converge(0.1), u32::MAX);
    }

    #[test]
    fn steps_to_converge_is_tight() {
        let m = PoolModel::new(0.3, 2.0, 12.0);
        let n = m.steps_to_converge(0.05);
        assert!(m.expected_mpl(n) - m.limit() <= 0.05 + 1e-12);
        if n > 0 {
            assert!(m.expected_mpl(n - 1) - m.limit() > 0.05);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_bad_order() {
        let _ = PoolModel::new(0.5, 10.0, 2.0);
    }

    #[test]
    fn initial_is_expected_mpl_zero_and_at_least_the_limit() {
        // `initial()` must be exactly the n = 0 point of the curve, and
        // the constructor's μs ≥ μf invariant already guarantees it is at
        // or above the asymptote — no clamp needed to hold the identity.
        for &(q, mu_f, mu_s) in
            &[(0.0, 2.0, 10.0), (0.4, 2.0, 10.0), (1.0, 2.0, 10.0), (0.7, 3.0, 3.0)]
        {
            let m = PoolModel::new(q, mu_f, mu_s);
            assert_eq!(m.initial(), m.expected_mpl(0));
            assert!(m.initial() >= m.limit() - 1e-12);
        }
    }
}
