//! Simulated time.
//!
//! Simulated time is measured in whole milliseconds from the start of the
//! run. Integer time gives the event queue a total order (floats would make
//! tie-breaking ill-defined) and keeps long runs free of accumulation error.
//!
//! Both [`SimTime`] (a point on the timeline) and [`SimDuration`] (a span)
//! are thin wrappers over `u64`/`i64` milliseconds with the arithmetic the
//! rest of the workspace needs. Conversions to floating-point seconds and
//! minutes exist only at reporting boundaries.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in milliseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" sentinel for comparisons.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Build a time from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Build a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Raw milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time as fractional minutes (for reporting only).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// actually later, which callers use to tolerate clock-skew-free logic.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction yielding a duration, `None` if `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// An effectively infinite duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Build a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Build a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Build a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Build a duration from fractional seconds, rounding to the nearest
    /// millisecond and clamping negatives to zero (sampled latencies can
    /// dip below zero before truncation; see [`crate::dist::TruncNormal`]).
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1000.0).round().min(u64::MAX as f64) as u64)
        }
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration as fractional minutes (for reporting only).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Integer division of two durations (how many `rhs` fit in `self`).
    pub fn div_duration(self, rhs: SimDuration) -> u64 {
        self.0.checked_div(rhs.0).unwrap_or(0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3000);
        assert_eq!(SimDuration::from_mins(2).as_millis(), 120_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!((t + d).since(t), d);
        // Saturating: earlier.since(later) is zero, not a panic.
        assert_eq!(t.since(t + d), SimDuration::ZERO);
        assert_eq!(t.checked_since(t + d), None);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(6);
        let b = SimDuration::from_secs(4);
        assert_eq!(a + b, SimDuration::from_secs(10));
        assert_eq!(a - b, SimDuration::from_secs(2));
        assert_eq!(b - a, SimDuration::ZERO);
        assert_eq!(a * 2, SimDuration::from_secs(12));
        assert_eq!(a / 2, SimDuration::from_secs(3));
        assert_eq!(a.div_duration(b), 1);
        assert_eq!(a.div_duration(SimDuration::ZERO), 0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::from_millis(5), SimTime::ZERO, SimTime::from_millis(3)];
        v.sort();
        assert_eq!(v, vec![SimTime::ZERO, SimTime::from_millis(3), SimTime::from_millis(5)]);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
