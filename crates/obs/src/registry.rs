//! Sim-time metrics: fixed-bucket histograms and the serializable
//! snapshot of a run's counters, gauges and histograms.
//!
//! Snapshot storage is ordered (`BTreeMap` keyed by the string behind a
//! [`MetricName`](crate::name::MetricName)), so iteration — and therefore
//! serialization — is deterministic. There are no wall-clock reads
//! anywhere: values are observed at simulation timestamps supplied by
//! the caller, and the snapshot itself stores no times at all.

use std::collections::BTreeMap;

use serde::Serialize;

/// Bucket upper bounds (inclusive) for assignment-span latencies, in
/// simulated milliseconds. One extra overflow bucket is appended.
pub const SPAN_BOUNDS_MS: &[u64] = &[250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000];

/// Bucket upper bounds (inclusive) for ready-queue depth samples.
pub const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128];

/// Bucket upper bounds (inclusive) for retainer-pool occupancy samples.
pub const OCCUPANCY_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64];

/// A fixed-bucket histogram. `counts.len() == bounds.len() + 1`; the
/// last bucket counts observations above every bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
}

impl Histogram {
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram { bounds, counts: vec![0; bounds.len() + 1] }
    }

    /// Count `value` in the first bucket whose bound it does not exceed.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The owned, serializable copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot { bounds: self.bounds.to_vec(), counts: self.counts.clone() }
    }
}

/// Owned, serializable histogram state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
}

/// A run's counters, gauges and histograms: what rides along on `RunReport`
/// inside an [`ObsReport`](crate::ObsReport).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_with_overflow() {
        let mut h = Histogram::new(&[10, 20]);
        h.observe(0);
        h.observe(10);
        h.observe(11);
        h.observe(20);
        h.observe(21);
        h.observe(u64::MAX);
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
    }
}
