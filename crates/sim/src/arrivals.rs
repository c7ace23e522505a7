//! Deterministic open-loop task arrival schedules.
//!
//! The streaming service mode (`clamshell-stream`) models tasks arriving
//! continuously at a target rate instead of materializing as a prebuilt
//! batch. The arrival process is *open-loop*: arrival instants are a pure
//! function of `(seed, rate)` drawn from a dedicated labeled stream (the
//! same [`fault_stream`] mechanism every adversity fault uses), and they
//! never gate admission or advance the simulated clock — the runner's
//! scheduling decisions are therefore identical at any rate, which is
//! what makes the streamed/batched bit-for-bit equivalence contract hold
//! (see ARCHITECTURE.md, "Streaming service mode"). Arrivals feed only
//! the *observability* side of a stream run: each `StreamCheckpoint`
//! reports how many tasks had arrived by the checkpoint instant and the
//! resulting backlog.
//!
//! Like [`OutageSchedule`](crate::faults::OutageSchedule), the timeline
//! is generated lazily: inter-arrival gaps are exponential around
//! `1/rate` seconds, floored at one millisecond so arrival instants are
//! strictly increasing.

use crate::dist::{Exponential, Sample};
use crate::faults::fault_stream;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Dedicated fault-stream label for the arrival process. Globally unique
/// across all `fault_stream` call sites (lint rule D004).
pub const ARRIVALS: u64 = 0x0A77_1DEA;

/// The arrival process RNG: the single `fault_stream` call site for the
/// [`ARRIVALS`] label.
fn arrivals_stream(seed: u64) -> Rng {
    fault_stream(seed, ARRIVALS)
}

/// One inter-arrival gap: exponential around the configured mean,
/// floored at a millisecond so arrival instants strictly increase.
fn next_gap(rng: &mut Rng, gap: &Exponential) -> SimDuration {
    SimDuration::from_secs_f64(gap.sample(rng)).max(SimDuration::from_millis(1))
}

/// A deterministic open-loop arrival timeline in constant memory: counts
/// the tasks of an unbounded stream that have arrived by monotone
/// non-decreasing probe times, without materializing the instants. It
/// keeps only the RNG cursor, the next pending arrival instant, and the
/// count — O(1) regardless of stream length, which is what an unbounded
/// service run needs.
///
/// ```
/// use clamshell_sim::arrivals::ArrivalCounter;
/// use clamshell_sim::time::SimTime;
///
/// let mut a = ArrivalCounter::new(7, 2.0);
/// let mut b = ArrivalCounter::new(7, 2.0);
/// assert_eq!(a.arrived_by(SimTime::ZERO), 0);
/// let t = SimTime::from_secs(30);
/// assert_eq!(a.arrived_by(t), b.arrived_by(t));
/// // Counting is monotone in time.
/// assert!(a.arrived_by(SimTime::from_secs(60)) >= b.arrived_by(t));
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalCounter {
    rng: Rng,
    gap: Exponential,
    /// The next not-yet-counted arrival instant.
    next: SimTime,
    count: u64,
}

impl ArrivalCounter {
    /// Build a counter for `rate_per_sec` mean arrivals per simulated
    /// second, drawing from the dedicated [`ARRIVALS`] stream of `seed`.
    pub fn new(seed: u64, rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive and finite"
        );
        let mut rng = arrivals_stream(seed);
        let gap = Exponential::from_mean(1.0 / rate_per_sec);
        let next = SimTime::ZERO + next_gap(&mut rng, &gap);
        ArrivalCounter { rng, gap, next, count: 0 }
    }

    /// How many tasks have arrived at or before time `t`.
    ///
    /// Probe times must be non-decreasing across calls: the counter only
    /// moves forward. (The streaming engine's checkpoint instants are
    /// monotone by construction.)
    pub fn arrived_by(&mut self, t: SimTime) -> u64 {
        while self.next <= t {
            self.count += 1;
            self.next += next_gap(&mut self.rng, &self.gap);
        }
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference timeline: the first `n` arrival instants, folded
    /// directly from the gap sequence.
    fn reference(seed: u64, rate: f64, n: usize) -> Vec<SimTime> {
        let mut rng = arrivals_stream(seed);
        let gap = Exponential::from_mean(1.0 / rate);
        let mut at = SimTime::ZERO;
        (0..n)
            .map(|_| {
                at += next_gap(&mut rng, &gap);
                at
            })
            .collect()
    }

    #[test]
    fn arrivals_are_deterministic_and_strictly_increasing() {
        let ta = reference(42, 1.5, 200);
        assert_eq!(ta, reference(42, 1.5, 200));
        for w in ta.windows(2) {
            assert!(w[0] < w[1], "arrival instants strictly increase");
        }
        // Each instant is counted exactly when it is reached.
        let mut c = ArrivalCounter::new(42, 1.5);
        for (i, &t) in ta.iter().enumerate() {
            assert_eq!(c.arrived_by(t), i as u64 + 1);
        }
    }

    #[test]
    fn different_seeds_and_rates_differ() {
        let t = |seed, rate| reference(seed, rate, 10)[9];
        assert_ne!(t(1, 1.0), t(2, 1.0));
        assert_ne!(t(1, 1.0), t(1, 4.0));
        let n = |seed, rate| ArrivalCounter::new(seed, rate).arrived_by(SimTime::from_secs(100));
        assert_ne!(n(1, 1.0), n(1, 4.0));
    }

    #[test]
    fn counts_are_monotone_under_monotone_probes() {
        let mut c = ArrivalCounter::new(3, 2.0);
        let counts: Vec<u64> = (0..40).map(|i| c.arrived_by(SimTime::from_secs(i * 7))).collect();
        assert_eq!(counts[0], 0);
        for w in counts.windows(2) {
            assert!(w[0] <= w[1], "arrival counts are monotone in time");
        }
        // Repeating a probe time does not move the counter.
        let last = SimTime::from_secs(39 * 7);
        assert_eq!(c.arrived_by(last), counts[39]);
    }

    #[test]
    fn mean_rate_tracks_configuration() {
        // 2 arrivals/sec over 1000 simulated seconds => ~2000 arrivals.
        let mut c = ArrivalCounter::new(5, 2.0);
        let n = c.arrived_by(SimTime::from_secs(1000));
        assert!((1700..2300).contains(&n), "arrivals={n}");
    }

    #[test]
    fn counter_matches_reference_exactly() {
        for (seed, rate) in [(1u64, 0.25), (9, 2.0), (77, 50.0)] {
            let mut counter = ArrivalCounter::new(seed, rate);
            let times = reference(seed, rate, 20_000);
            for i in 0..300 {
                let t = SimTime::from_millis(i * 137);
                assert!(times.last().is_some_and(|&last| last > t), "reference covers t");
                let expected = times.partition_point(|&at| at <= t) as u64;
                assert_eq!(counter.arrived_by(t), expected, "seed={seed} rate={rate} t={t:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn counter_zero_rate_rejected() {
        let _ = ArrivalCounter::new(1, 0.0);
    }
}
