//! Streaming aggregation: per-scenario statistics without buffering
//! reports.
//!
//! A full [`RunReport`] holds every task, assignment, and batch of a
//! run — far too heavy to keep around for a million-cell sweep. The
//! [`Aggregator`] trait receives each report exactly once, in job-index
//! order, and is expected to fold it into constant-size state.
//! [`MetricsAggregator`] is the standard implementation: one
//! [`OnlineStats`] (Welford) accumulator per scenario × metric, so the
//! retained state is `O(scenarios × metrics)` regardless of sweep size.
//! The fold is sequential: a sharded sweep persists the accumulator
//! words ([`MetricsAggregator::snapshot_words`]) and resumes the same
//! fold, rather than merging partial aggregates.

use crate::grid::JobMeta;
use clamshell_core::metrics::RunReport;
use clamshell_sim::stats::OnlineStats;

/// A streaming consumer of sweep results.
///
/// `consume` is called once per completed cell. Calls arrive in strictly
/// increasing job-index order (with gaps only after a cancellation), on
/// the coordinating thread — implementations need no synchronization.
pub trait Aggregator {
    /// Fold one cell's report into the aggregate.
    fn consume(&mut self, meta: &JobMeta, report: &RunReport);
}

/// Blanket impl so plain closures can serve as aggregators.
impl<F: FnMut(&JobMeta, &RunReport)> Aggregator for F {
    fn consume(&mut self, meta: &JobMeta, report: &RunReport) {
        self(meta, report)
    }
}

/// One scalar metric extracted from a [`RunReport`].
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, used to address columns in the aggregate table.
    pub name: &'static str,
    /// Extractor mapping a report to the metric value.
    pub extract: fn(&RunReport) -> f64,
}

impl Metric {
    /// The harness's standard metric set: wall-clock, throughput,
    /// per-batch latency variability, tail latency (via
    /// [`Summary`](clamshell_sim::stats::Summary)), and cost.
    pub fn standard() -> Vec<Metric> {
        vec![
            Metric { name: "total_secs", extract: |r| r.total_secs() },
            Metric { name: "throughput", extract: |r| r.throughput() },
            Metric { name: "mean_batch_std", extract: |r| r.mean_batch_std() },
            Metric { name: "p95_task_latency", extract: |r| r.task_latency_summary().p95 },
            Metric { name: "cost_usd", extract: |r| r.cost.total_usd() },
        ]
    }
}

/// Per-scenario streaming statistics over a fixed metric set.
///
/// Cell `(scenario s, metric m)` accumulates one [`OnlineStats`] across
/// the scenario's seeds, in job-index order.
#[derive(Debug, Clone)]
pub struct MetricsAggregator {
    metrics: Vec<Metric>,
    /// `cells[scenario][metric]`.
    cells: Vec<Vec<OnlineStats>>,
}

impl MetricsAggregator {
    /// An empty aggregator for `n_scenarios` rows over `metrics`.
    pub fn new(n_scenarios: usize, metrics: Vec<Metric>) -> Self {
        assert!(!metrics.is_empty(), "need at least one metric");
        let cells = vec![vec![OnlineStats::new(); metrics.len()]; n_scenarios];
        MetricsAggregator { metrics, cells }
    }

    /// The metric set, in column order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Number of scenario rows.
    pub fn n_scenarios(&self) -> usize {
        self.cells.len()
    }

    /// Column index of `metric`, panicking on unknown names (a typo'd
    /// metric is a programming error, not data).
    fn column(&self, metric: &str) -> usize {
        self.metrics
            .iter()
            .position(|m| m.name == metric)
            .unwrap_or_else(|| panic!("unknown metric {metric:?}"))
    }

    /// Accumulated statistics for `(scenario, metric)`.
    pub fn stats(&self, scenario: usize, metric: &str) -> &OnlineStats {
        &self.cells[scenario][self.column(metric)]
    }

    /// Mean of `metric` over the seeds of `scenario`.
    pub fn mean(&self, scenario: usize, metric: &str) -> f64 {
        self.stats(scenario, metric).mean()
    }

    /// Standard deviation of `metric` over the seeds of `scenario`.
    pub fn std(&self, scenario: usize, metric: &str) -> f64 {
        self.stats(scenario, metric).std()
    }

    /// Number of metric columns.
    pub fn n_metrics(&self) -> usize {
        self.metrics.len()
    }

    /// Checkpoint encoding: every cell's exact accumulator state as
    /// integer words, scenario-major, three words per cell
    /// ([`OnlineStats::to_words`]). Floats travel as IEEE-754 bit
    /// patterns, so a [`Self::restore_words`] round-trip is bit-exact —
    /// the property shard-manifest resume depends on.
    pub fn snapshot_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.cells.len() * self.metrics.len() * 3);
        for row in &self.cells {
            for cell in row {
                out.extend_from_slice(&cell.to_words());
            }
        }
        out
    }

    /// Restore every cell from a [`Self::snapshot_words`] encoding.
    /// Fails (leaving `self` untouched) when the word count does not
    /// match this aggregator's `scenarios × metrics × 3` shape.
    pub fn restore_words(&mut self, words: &[u64]) -> Result<(), SnapshotShapeError> {
        let expected = self.cells.len() * self.metrics.len() * 3;
        if words.len() != expected {
            return Err(SnapshotShapeError { expected, got: words.len() });
        }
        let mut it = words.chunks_exact(3);
        for row in &mut self.cells {
            for cell in row {
                if let Some(w) = it.next() {
                    *cell = OnlineStats::from_words([w[0], w[1], w[2]]);
                }
            }
        }
        Ok(())
    }
}

/// A snapshot's word count did not match the aggregator shape it was
/// restored into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotShapeError {
    /// Words the aggregator's shape requires.
    pub expected: usize,
    /// Words the snapshot supplied.
    pub got: usize,
}

impl std::fmt::Display for SnapshotShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "aggregate snapshot holds {} words but the grid shape needs {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for SnapshotShapeError {}

impl Aggregator for MetricsAggregator {
    fn consume(&mut self, meta: &JobMeta, report: &RunReport) {
        let row = &mut self.cells[meta.scenario];
        for (cell, metric) in row.iter_mut().zip(&self.metrics) {
            cell.push((metric.extract)(report));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use clamshell_core::task::TaskSpec;
    use clamshell_core::RunConfig;
    use clamshell_trace::Population;
    use std::sync::Arc;

    fn grid() -> Grid {
        let specs: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
        Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs,
            4,
        )
        .seeds(&[1, 2, 3, 4])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None)
    }

    #[test]
    fn streaming_aggregate_matches_serial_fold() {
        let g = grid();
        let mut agg = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        let status = g.run_streaming(Some(4), &mut agg);
        assert!(status.is_complete());

        // Serial reference fold over the same reports.
        let reports = g.try_run_all(Some(1)).expect("test grid is valid");
        let mut reference = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        for (i, r) in reports.iter().enumerate() {
            reference.consume(&g.meta(i), r);
        }
        for s in 0..g.n_scenarios() {
            for m in agg.metrics().to_vec() {
                assert_eq!(agg.stats(s, m.name).count(), 4);
                assert_eq!(
                    agg.stats(s, m.name),
                    reference.stats(s, m.name),
                    "cell ({s}, {})",
                    m.name
                );
            }
        }
    }

    #[test]
    fn snapshot_words_round_trip_is_bit_exact() {
        let g = grid();
        let mut agg = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        let status = g.run_streaming(Some(2), &mut agg);
        assert!(status.is_complete());
        let words = agg.snapshot_words();
        assert_eq!(words.len(), g.n_scenarios() * agg.n_metrics() * 3);

        let mut restored = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        restored.restore_words(&words).unwrap();
        assert_eq!(restored.snapshot_words(), words);
        for s in 0..g.n_scenarios() {
            for m in agg.metrics().to_vec() {
                assert_eq!(restored.stats(s, m.name), agg.stats(s, m.name));
            }
        }

        // Shape mismatches are rejected without touching the target.
        let mut wrong = MetricsAggregator::new(g.n_scenarios() + 1, Metric::standard());
        let err = wrong.restore_words(&words).unwrap_err();
        assert_eq!(err.got, words.len());
        assert!(err.to_string().contains("snapshot"));
    }

    #[test]
    fn closure_aggregators_work() {
        let g = grid();
        let labels = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let labels2 = labels.clone();
        let mut agg = move |meta: &JobMeta, _report: &RunReport| {
            labels2.lock().unwrap().push(format!("{}:{}", meta.label, meta.seed));
        };
        g.run_streaming(Some(2), &mut agg);
        let got = labels.lock().unwrap().clone();
        assert_eq!(got.len(), 8);
        assert_eq!(got[0], "sm:1");
        assert_eq!(got[7], "nosm:4");
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics() {
        let agg = MetricsAggregator::new(1, Metric::standard());
        agg.mean(0, "nope");
    }
}
