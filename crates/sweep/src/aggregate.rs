//! Streaming aggregation: per-scenario statistics without buffering
//! reports.
//!
//! A full [`RunReport`] holds every task, assignment, and batch of a
//! run — far too heavy to keep around for a million-cell sweep. The
//! [`Aggregator`] trait receives each report exactly once, in job-index
//! order, and is expected to fold it into constant-size state.
//! [`MetricsAggregator`] is the standard implementation: one
//! [`OnlineStats`] (Welford) accumulator per scenario × metric, merged
//! across partial aggregators with the parallel-Welford rule, so the
//! retained state is `O(scenarios × metrics)` regardless of sweep size.

use crate::grid::JobMeta;
use clamshell_core::metrics::RunReport;
use clamshell_obs::MetricsSnapshot;
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
/// the scenario's seeds. Two aggregators built from disjoint slices of
/// the same sweep [`merge`](Self::merge) into exactly the aggregator of
/// the whole sweep (parallel Welford), which is what the engine's
/// deterministic-fold tests pin down.
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

    /// Merge another partial aggregate (same shape) into this one.
    ///
    /// Zero-count cells are the identity on either side (guaranteed by
    /// [`OnlineStats::merge`]'s guards), so merging a shard whose
    /// scenario rows exist but have no completed seeds yet never
    /// NaN-poisons the populated side — the shape asserts here are about
    /// *structure*, not counts.
    pub fn merge(&mut self, other: &MetricsAggregator) {
        assert_eq!(self.cells.len(), other.cells.len(), "scenario count mismatch");
        assert_eq!(self.metrics.len(), other.metrics.len(), "metric count mismatch");
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
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

/// Per-scenario fold of the observability registries attached to
/// instrumented runs (`RunConfig::obs.enabled`).
///
/// Each job's [`MetricsSnapshot`] merges into its scenario row in
/// job-index order — counters sum, gauges (high-water marks such as
/// `runner.queue_depth_hwm`) take the max, histograms add bucket-wise —
/// exactly the shape of the [`OnlineStats`] fold above, so partial
/// aggregators built from disjoint sweep slices [`merge`](Self::merge)
/// into the whole-sweep aggregate. Uninstrumented reports (`obs: None`)
/// fold as empty and only bump the job count, so the aggregator is safe
/// to attach to any grid.
#[derive(Debug, Clone)]
pub struct ObsAggregator {
    /// `rows[scenario]`: merged snapshot across the scenario's jobs.
    rows: Vec<MetricsSnapshot>,
    /// Jobs consumed per scenario (instrumented or not).
    jobs: Vec<u64>,
    /// Jobs per scenario that actually carried an obs report.
    instrumented: Vec<u64>,
}

impl ObsAggregator {
    /// An empty aggregator over `n_scenarios` rows.
    pub fn new(n_scenarios: usize) -> Self {
        ObsAggregator {
            rows: vec![MetricsSnapshot::default(); n_scenarios],
            jobs: vec![0; n_scenarios],
            instrumented: vec![0; n_scenarios],
        }
    }

    /// Number of scenario rows.
    pub fn n_scenarios(&self) -> usize {
        self.rows.len()
    }

    /// The merged snapshot for `scenario`.
    pub fn snapshot(&self, scenario: usize) -> &MetricsSnapshot {
        &self.rows[scenario]
    }

    /// Summed counter `name` across the scenario's jobs (0 if absent).
    pub fn counter(&self, scenario: usize, name: &str) -> u64 {
        self.rows[scenario].counters.get(name).copied().unwrap_or(0)
    }

    /// Max gauge `name` across the scenario's jobs (0 if absent) — for
    /// high-water marks this is the sweep-wide high-water mark.
    pub fn gauge(&self, scenario: usize, name: &str) -> u64 {
        self.rows[scenario].gauges.get(name).copied().unwrap_or(0)
    }

    /// Jobs consumed for `scenario`.
    pub fn jobs(&self, scenario: usize) -> u64 {
        self.jobs[scenario]
    }

    /// Jobs for `scenario` that carried an obs report.
    pub fn instrumented(&self, scenario: usize) -> u64 {
        self.instrumented[scenario]
    }

    /// Merge another partial aggregate (same shape) into this one.
    pub fn merge(&mut self, other: &ObsAggregator) {
        assert_eq!(self.rows.len(), other.rows.len(), "scenario count mismatch");
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            mine.merge(theirs);
        }
        for (a, b) in self.jobs.iter_mut().zip(&other.jobs) {
            *a += b;
        }
        for (a, b) in self.instrumented.iter_mut().zip(&other.instrumented) {
            *a += b;
        }
    }
}

impl Aggregator for ObsAggregator {
    fn consume(&mut self, meta: &JobMeta, report: &RunReport) {
        self.jobs[meta.scenario] += 1;
        if let Some(obs) = &report.obs {
            self.instrumented[meta.scenario] += 1;
            self.rows[meta.scenario].merge(&obs.metrics);
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
    fn merge_of_partials_equals_whole() {
        let g = grid();
        let reports = g.try_run_all(Some(1)).expect("test grid is valid");
        let metas: Vec<_> = (0..g.n_jobs()).map(|i| g.meta(i)).collect();

        let mut whole = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        for (meta, r) in metas.iter().zip(&reports) {
            whole.consume(meta, r);
        }
        let mut left = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        let mut right = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        for (meta, r) in metas.iter().zip(&reports) {
            if meta.index % 2 == 0 {
                left.consume(meta, r);
            } else {
                right.consume(meta, r);
            }
        }
        left.merge(&right);
        for s in 0..g.n_scenarios() {
            for m in whole.metrics().to_vec() {
                let (a, b) = (left.stats(s, m.name), whole.stats(s, m.name));
                assert_eq!(a.count(), b.count());
                assert!((a.mean() - b.mean()).abs() < 1e-9, "mean cell ({s}, {})", m.name);
                assert!(
                    (a.variance() - b.variance()).abs() < 1e-9,
                    "variance cell ({s}, {})",
                    m.name
                );
            }
        }
    }

    #[test]
    fn merge_with_zero_count_sides_is_identity() {
        // An "empty shard" has the full scenario × metric shape but no
        // completed seeds — its cells all hold zero counts. Merging one
        // in (either direction) must be the identity, bit-for-bit, and
        // never NaN-poison means or stds.
        let g = grid();
        let mut populated = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        let status = g.run_streaming(Some(2), &mut populated);
        assert!(status.is_complete());
        let reference = populated.snapshot_words();

        // empty-right: populated ∪ empty == populated.
        let empty = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        populated.merge(&empty);
        assert_eq!(populated.snapshot_words(), reference);

        // empty-left: empty ∪ populated == populated.
        let mut left = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        left.merge(&populated);
        assert_eq!(left.snapshot_words(), reference);

        // empty-both: still empty, all summary statistics finite.
        let mut both = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        both.merge(&MetricsAggregator::new(g.n_scenarios(), Metric::standard()));
        for s in 0..g.n_scenarios() {
            for m in both.metrics().to_vec() {
                assert_eq!(both.stats(s, m.name).count(), 0);
                assert!(both.mean(s, m.name).is_finite(), "cell ({s}, {}) mean", m.name);
                assert!(both.std(s, m.name).is_finite(), "cell ({s}, {}) std", m.name);
            }
        }

        // And the populated side stayed NaN-free throughout.
        for s in 0..g.n_scenarios() {
            for m in populated.metrics().to_vec() {
                assert!(populated.mean(s, m.name).is_finite());
                assert!(populated.std(s, m.name).is_finite());
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

    fn obs_grid() -> Grid {
        let specs: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
        Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() }.with_obs(),
            Population::mturk_live(),
            specs,
            4,
        )
        .seeds(&[1, 2, 3])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None)
    }

    #[test]
    fn obs_streaming_fold_matches_serial_and_reconciles() {
        let g = obs_grid();
        let mut agg = ObsAggregator::new(g.n_scenarios());
        let status = g.run_streaming(Some(4), &mut agg);
        assert!(status.is_complete());

        let reports = g.try_run_all(Some(1)).expect("test grid is valid");
        let mut reference = ObsAggregator::new(g.n_scenarios());
        for (i, r) in reports.iter().enumerate() {
            reference.consume(&g.meta(i), r);
        }
        for s in 0..g.n_scenarios() {
            assert_eq!(agg.jobs(s), 3);
            assert_eq!(agg.instrumented(s), 3);
            assert_eq!(agg.snapshot(s), reference.snapshot(s), "row {s}");
            // Counters sum across seeds: every dispatch had a checkout.
            assert!(agg.counter(s, "runner.dispatch") > 0);
            assert_eq!(agg.counter(s, "runner.checkout"), agg.counter(s, "runner.dispatch"));
            // The gauge row is the sweep-wide queue-depth high-water mark.
            let hwm = agg.gauge(s, "runner.queue_depth_hwm");
            let per_job_max = reports
                .iter()
                .enumerate()
                .filter(|(i, _)| g.meta(*i).scenario == s)
                .map(|(_, r)| {
                    *r.obs.as_ref().unwrap().metrics.gauges.get("runner.queue_depth_hwm").unwrap()
                })
                .max()
                .unwrap();
            assert_eq!(hwm, per_job_max);
        }
    }

    #[test]
    fn obs_merge_of_partials_equals_whole() {
        let g = obs_grid();
        let reports = g.try_run_all(Some(1)).expect("test grid is valid");
        let mut whole = ObsAggregator::new(g.n_scenarios());
        let mut left = ObsAggregator::new(g.n_scenarios());
        let mut right = ObsAggregator::new(g.n_scenarios());
        for (i, r) in reports.iter().enumerate() {
            let meta = g.meta(i);
            whole.consume(&meta, r);
            if i % 2 == 0 {
                left.consume(&meta, r);
            } else {
                right.consume(&meta, r);
            }
        }
        left.merge(&right);
        for s in 0..g.n_scenarios() {
            assert_eq!(left.jobs(s), whole.jobs(s));
            assert_eq!(left.instrumented(s), whole.instrumented(s));
            assert_eq!(left.snapshot(s), whole.snapshot(s), "row {s}");
        }
    }

    #[test]
    fn obs_aggregator_tolerates_uninstrumented_runs() {
        let g = grid(); // obs disabled in the base config
        let mut agg = ObsAggregator::new(g.n_scenarios());
        let status = g.run_streaming(Some(2), &mut agg);
        assert!(status.is_complete());
        for s in 0..g.n_scenarios() {
            assert_eq!(agg.jobs(s), 4);
            assert_eq!(agg.instrumented(s), 0);
            assert!(agg.snapshot(s).is_empty());
        }
    }
}
