//! Dollar accounting.
//!
//! Every cost result in the paper (Figures 4, 11, 12; the cost column of
//! Table 2) decomposes into the same three buckets this ledger tracks:
//! retainer waiting wages, per-record work wages, and recruitment costs.
//! Amounts are kept in integer micro-dollars so cost totals are exact and
//! deterministic across summation orders.

use clamshell_sim::time::SimDuration;

/// Micro-dollars (1e-6 USD) as an integer, so ledgers add associatively.
pub type MicroUsd = u64;

/// Convert dollars to micro-dollars, rounding to nearest.
pub fn usd(d: f64) -> MicroUsd {
    assert!(d >= 0.0 && d.is_finite(), "payments must be non-negative");
    (d * 1e6).round() as MicroUsd
}

/// Cost ledger with the paper's three payment buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Wages for waiting in the retainer pool ($0.05/min in §6.1).
    pub wait_micro: MicroUsd,
    /// Wages for completed or terminated labeling work ($0.02/record).
    pub work_micro: MicroUsd,
    /// Recruitment posting costs.
    pub recruit_micro: MicroUsd,
}

clamshell_sim::json_struct!(CostLedger { wait_micro, work_micro, recruit_micro });

impl CostLedger {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge waiting wages for `dur` at `rate_per_min` dollars/minute.
    pub fn charge_wait(&mut self, dur: SimDuration, rate_per_min: f64) {
        self.wait_micro += usd(rate_per_min * dur.as_mins_f64());
    }

    /// Charge work wages for `records` at `rate_per_record` dollars each.
    pub fn charge_work(&mut self, records: u64, rate_per_record: f64) {
        self.work_micro += usd(rate_per_record).saturating_mul(records);
    }

    /// Charge one recruitment posting fee.
    pub fn charge_recruitment(&mut self, fee: f64) {
        self.recruit_micro += usd(fee);
    }

    /// Total cost in micro-dollars.
    pub fn total_micro(&self) -> MicroUsd {
        self.wait_micro + self.work_micro + self.recruit_micro
    }

    /// Total cost in dollars (reporting only).
    pub fn total_usd(&self) -> f64 {
        self.total_micro() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usd_conversion_is_exact_for_paper_rates() {
        assert_eq!(usd(0.05), 50_000);
        assert_eq!(usd(0.02), 20_000);
        assert_eq!(usd(0.0), 0);
    }

    #[test]
    fn wait_pay_matches_paper_rate() {
        let mut l = CostLedger::new();
        // 10 minutes at $0.05/min = $0.50.
        l.charge_wait(SimDuration::from_mins(10), 0.05);
        assert_eq!(l.wait_micro, 500_000);
        assert!((l.total_usd() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn work_pay_per_record() {
        let mut l = CostLedger::new();
        l.charge_work(500, 0.02); // 500 records at $0.02 = $10
        assert_eq!(l.work_micro, 10_000_000);
    }

    #[test]
    fn total_sums_every_charge() {
        let mut l = CostLedger::new();
        l.charge_wait(SimDuration::from_mins(2), 0.05);
        l.charge_work(10, 0.02);
        l.charge_recruitment(0.10);
        assert_eq!(l.total_micro(), 100_000 + 200_000 + 100_000);
    }

    #[test]
    fn sub_minute_waits_accrue() {
        let mut l = CostLedger::new();
        l.charge_wait(SimDuration::from_secs(30), 0.05);
        assert_eq!(l.wait_micro, 25_000); // $0.025
    }

    #[test]
    #[should_panic]
    fn negative_payment_rejected() {
        let _ = usd(-1.0);
    }
}
