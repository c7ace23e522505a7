//! Deterministic fault-injection primitives for the event loop.
//!
//! The adversity scenarios (see the `clamshell-scenarios` crate) need to
//! perturb a simulation **without** perturbing any of its unrelated
//! random streams: enabling an outage must not change which worker
//! profiles are sampled, and enabling churn must not shift a single
//! latency draw. The rule, extending the determinism contract in
//! ARCHITECTURE.md, is that every fault consumes randomness only from a
//! **dedicated stream** derived via [`fault_stream`] — never from the
//! platform or worker generators.
//!
//! This module owns the kernel-level half of that machinery:
//!
//! * [`fault_stream`] — derive an independent, labeled fault RNG from
//!   the run seed (stateless, so construction order cannot matter);
//! * [`OutageSchedule`] — a lazy, deterministic alternating
//!   up-time/outage timeline used to defer platform events (assignment
//!   submissions, recruitment arrivals) to the end of a blackout.

use crate::dist::{Exponential, Sample};
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Derive an independent fault RNG from the run seed and a stream label.
///
/// Unlike [`Rng::fork`], this is stateless: it never draws from (and so
/// never perturbs) a parent generator, and the same `(seed, label)` pair
/// yields the same stream no matter when or in what order fault streams
/// are created.
///
/// ```
/// use clamshell_sim::faults::fault_stream;
///
/// let mut a = fault_stream(7, 1);
/// let mut b = fault_stream(7, 1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_ne!(fault_stream(7, 1).next_u64(), fault_stream(7, 2).next_u64());
/// ```
pub fn fault_stream(seed: u64, label: u64) -> Rng {
    // Golden-ratio mixing keeps consecutive labels decorrelated before
    // the SplitMix64 expansion inside `Rng::new`.
    Rng::new(
        seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ 0xFA17_FA17_FA17_FA17,
    )
}

/// A deterministic alternating schedule of platform up-time and outage
/// windows, generated lazily from a dedicated fault stream.
///
/// Windows are half-open `[start, end)` intervals: a query exactly at
/// `end` is already recovered. Both up-time gaps and outage durations
/// are exponentially distributed around their configured means, floored
/// at one millisecond so windows never collapse to zero width.
///
/// Queries may arrive in any order; the schedule materializes windows on
/// demand up to the furthest time asked about, so the window sequence is
/// a pure function of the seed and the means.
#[derive(Debug, Clone)]
pub struct OutageSchedule {
    rng: Rng,
    uptime: Exponential,
    outage: Exponential,
    /// Windows generated so far, in increasing order.
    windows: Vec<(SimTime, SimTime)>,
    /// End of the last generated window (next gap starts here).
    horizon: SimTime,
}

impl OutageSchedule {
    /// Build a schedule from a dedicated stream of `seed` with the given
    /// mean up-time between outages and mean outage duration.
    pub fn new(seed: u64, mean_uptime: SimDuration, mean_outage: SimDuration) -> Self {
        assert!(mean_uptime > SimDuration::ZERO, "mean up-time must be positive");
        assert!(mean_outage > SimDuration::ZERO, "mean outage must be positive");
        OutageSchedule {
            rng: fault_stream(seed, 0x0074_A6E5),
            uptime: Exponential::from_mean(mean_uptime.as_secs_f64()),
            outage: Exponential::from_mean(mean_outage.as_secs_f64()),
            windows: Vec::new(),
            horizon: SimTime::ZERO,
        }
    }

    /// Extend the materialized window list until it covers time `t`.
    fn extend_past(&mut self, t: SimTime) {
        while self.horizon <= t {
            let gap = SimDuration::from_secs_f64(self.uptime.sample(&mut self.rng))
                .max(SimDuration::from_millis(1));
            let dur = SimDuration::from_secs_f64(self.outage.sample(&mut self.rng))
                .max(SimDuration::from_millis(1));
            let start = self.horizon + gap;
            let end = start + dur;
            self.windows.push((start, end));
            self.horizon = end;
        }
    }

    /// If `t` falls inside an outage window, the recovery time (strictly
    /// greater than `t`) the caller should defer the event to; `None`
    /// when the platform is up.
    pub fn defer(&mut self, t: SimTime) -> Option<SimTime> {
        self.extend_past(t);
        // Binary search the window whose end is the first strictly after
        // `t`; `t` is inside it iff it started already.
        let idx = self.windows.partition_point(|&(_, end)| end <= t);
        match self.windows.get(idx) {
            Some(&(start, end)) if start <= t => Some(end),
            _ => None,
        }
    }

    /// Windows materialized so far (testing / reporting).
    pub fn generated(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(seed: u64) -> OutageSchedule {
        OutageSchedule::new(seed, SimDuration::from_secs(60), SimDuration::from_secs(20))
    }

    #[test]
    fn fault_streams_are_deterministic_and_labeled() {
        let seq = |label: u64| {
            let mut r = fault_stream(42, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(3), seq(3));
        assert_ne!(seq(3), seq(4));
        // Independent of the main run streams: same seed, different salt.
        assert_ne!(seq(0)[0], Rng::new(42).next_u64());
    }

    #[test]
    fn windows_alternate_and_are_ordered() {
        let mut s = sched(1);
        s.extend_past(SimTime::from_secs(3600));
        let ws = s.generated();
        assert!(ws.len() > 10, "an hour should hold many windows");
        for w in ws.windows(2) {
            assert!(w[0].0 < w[0].1, "window non-empty");
            assert!(w[0].1 < w[1].0, "gap between windows non-empty");
        }
    }

    #[test]
    fn defer_points_to_window_end() {
        let mut s = sched(2);
        s.extend_past(SimTime::from_secs(1000));
        let (start, end) = s.generated()[0];
        assert_eq!(s.defer(start), Some(end), "start is inside");
        let mid = SimTime::from_millis((start.as_millis() + end.as_millis()) / 2);
        assert_eq!(s.defer(mid), Some(end));
        assert_eq!(s.defer(end), None, "half-open: recovered at end");
        assert!(s.defer(SimTime::ZERO).is_none(), "first gap is up-time");
    }

    #[test]
    fn query_order_does_not_change_the_schedule() {
        let mut fwd = sched(3);
        let mut rev = sched(3);
        let probes: Vec<SimTime> = (0..50).map(|i| SimTime::from_secs(i * 37)).collect();
        let a: Vec<_> = probes.iter().map(|&t| fwd.defer(t)).collect();
        let b: Vec<_> = probes.iter().rev().map(|&t| rev.defer(t)).collect();
        let b_fwd: Vec<_> = b.into_iter().rev().collect();
        assert_eq!(a, b_fwd);
        assert_eq!(fwd.generated(), rev.generated());
    }

    #[test]
    fn mean_occupancy_tracks_configuration() {
        // 60s up / 20s down => ~25% of time inside an outage.
        let mut s = sched(4);
        let total = 400_000u64; // ms probes over ~6.6 simulated hours
        let mut out = 0usize;
        let mut probes = 0usize;
        for ms in (0..total * 60).step_by(250) {
            probes += 1;
            if s.defer(SimTime::from_millis(ms)).is_some() {
                out += 1;
            }
        }
        let frac = out as f64 / probes as f64;
        assert!((0.18..0.32).contains(&frac), "outage occupancy={frac}");
    }
}
