//! The [`Grid`] builder: scenario axes × seeds → an indexed job list.
//!
//! A grid runs three ways, all on the [block pipeline](crate::pool) with
//! cells made per block by [`Grid::jobs_range`], and all in job-index
//! order: [`Grid::try_run_all`] collects every report,
//! [`Grid::run_grouped`] collects them per (scenario, variant) row, and
//! [`Grid::run_streaming`] folds them into an [`Aggregator`] with at
//! most the pipeline's window of blocks in memory. Checkpointed,
//! resumable sweeps go through [`run_sharded`](crate::shard::run_sharded),
//! the same pipeline with a checkpointing sink.

use crate::aggregate::Aggregator;
use crate::job::Job;
use crate::pool::{self, ExecStatus, Plan};
use crate::threads;
use clamshell_core::metrics::RunReport;
use clamshell_core::task::TaskSpec;
use clamshell_core::{PoolConfig, RunConfig};
use clamshell_trace::Population;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Why a grid cannot run: structural problems caught *before* any job is
/// dispatched, so a bad grid fails fast with a typed error instead of
/// panicking mid-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The seed axis is empty (a grid of zero cells).
    EmptySeedAxis,
    /// Two scenarios share a label; results keyed by label would silently
    /// collide.
    DuplicateScenario {
        /// The offending label.
        label: String,
    },
    /// Two pool variants share a label; combined cell labels would
    /// silently collide.
    DuplicateVariant {
        /// The offending label.
        label: String,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptySeedAxis => write!(f, "grid has an empty seed axis"),
            GridError::DuplicateScenario { label } => {
                write!(f, "grid declares scenario label {label:?} more than once")
            }
            GridError::DuplicateVariant { label } => {
                write!(f, "grid declares pool-variant label {label:?} more than once")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// One axis point of a grid: a labeled mutation of the base config,
/// optionally overriding the grid's task specs and batch size (needed by
/// sweeps where the knob changes the workload shape, e.g. the `R` and
/// `Ng` axes of Figures 3 and 9–10).
pub struct Scenario {
    label: Arc<str>,
    mutate: Arc<dyn Fn(&mut RunConfig) + Send + Sync>,
    specs: Option<Arc<Vec<TaskSpec>>>,
    batch_size: Option<usize>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .field("specs", &self.specs.as_ref().map(|s| s.len()))
            .field("batch_size", &self.batch_size)
            .finish()
    }
}

/// Identity of one grid cell, as handed to streaming aggregators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMeta {
    /// Position in enumeration order.
    pub index: usize,
    /// Scenario index (row of the grid).
    pub scenario: usize,
    /// Pool-variant index (0 when the grid declares no variants).
    pub variant: usize,
    /// Scenario label (suffixed `"/variant"` when variants are declared).
    pub label: Arc<str>,
    /// The cell's seed.
    pub seed: u64,
}

/// Builder for a seed × scenario sweep over
/// [`run_batched`](clamshell_core::runner::run_batched).
///
/// Enumeration order is **scenario-major, variant-mid, seed-minor** in
/// declaration order: scenario 0 × variant 0 × every seed, then
/// scenario 0 × variant 1 × every seed, and so on. Job `index` is the
/// position in that order, and every result-returning method presents
/// reports in it, which is what makes sweeps deterministic across
/// thread counts. A grid with no declared scenarios runs the base
/// config as a single implicit scenario labeled `"base"`; a grid with
/// no declared pool variants has a single implicit variant (the base
/// config's own [`PoolConfig`]) that adds no label suffix — the
/// historical labels and enumeration exactly.
pub struct Grid {
    base: RunConfig,
    population: Arc<Population>,
    specs: Arc<Vec<TaskSpec>>,
    batch_size: usize,
    seeds: Vec<u64>,
    scenarios: Vec<Scenario>,
    /// Pool-lifecycle axis: labeled [`PoolConfig`]s crossed against every
    /// scenario. Empty = the single implicit variant.
    pool_variants: Vec<(Arc<str>, PoolConfig)>,
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid")
            .field("seeds", &self.seeds)
            .field("scenarios", &self.scenarios)
            .field("specs", &self.specs.len())
            .field("batch_size", &self.batch_size)
            .finish()
    }
}

impl Grid {
    /// A grid over `base`, labeling `specs` in batches of `batch_size`
    /// against `population`. Starts with the base config's seed as the
    /// only seed and no scenarios.
    pub fn new(
        base: RunConfig,
        population: Population,
        specs: Vec<TaskSpec>,
        batch_size: usize,
    ) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        let seeds = vec![base.seed];
        Grid {
            base,
            population: Arc::new(population),
            specs: Arc::new(specs),
            batch_size,
            seeds,
            scenarios: Vec::new(),
            pool_variants: Vec::new(),
        }
    }

    /// Set the seed axis (replaces the default single seed). An empty
    /// axis is accepted here and reported as
    /// [`GridError::EmptySeedAxis`] by [`Grid::validate`] and every run
    /// entry point.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Check the grid is structurally runnable: a non-empty seed axis
    /// and no duplicate scenario or pool-variant labels. Every run entry
    /// point calls this first, so an invalid grid fails before any cell
    /// executes.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.seeds.is_empty() {
            return Err(GridError::EmptySeedAxis);
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.scenarios {
            if !seen.insert(&*s.label) {
                return Err(GridError::DuplicateScenario { label: s.label.to_string() });
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for (label, _) in &self.pool_variants {
            if !seen.insert(&**label) {
                return Err(GridError::DuplicateVariant { label: label.to_string() });
            }
        }
        Ok(())
    }

    /// Append a scenario: a labeled mutation of the base config.
    pub fn scenario(
        mut self,
        label: impl Into<Arc<str>>,
        mutate: impl Fn(&mut RunConfig) + Send + Sync + 'static,
    ) -> Self {
        self.scenarios.push(Scenario {
            label: label.into(),
            mutate: Arc::new(mutate),
            specs: None,
            batch_size: None,
        });
        self
    }

    /// Append a scenario that also overrides the task specs and batch
    /// size (for axes that reshape the workload itself).
    pub fn scenario_with(
        mut self,
        label: impl Into<Arc<str>>,
        mutate: impl Fn(&mut RunConfig) + Send + Sync + 'static,
        specs: Vec<TaskSpec>,
        batch_size: usize,
    ) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        self.scenarios.push(Scenario {
            label: label.into(),
            mutate: Arc::new(mutate),
            specs: Some(Arc::new(specs)),
            batch_size: Some(batch_size),
        });
        self
    }

    /// Append a pool-lifecycle variant: a labeled [`PoolConfig`] crossed
    /// against every scenario. Declaring any variant multiplies the grid
    /// by the variant axis and suffixes cell labels `"scenario/variant"`.
    pub fn pool_variant(mut self, label: impl Into<Arc<str>>, config: PoolConfig) -> Self {
        self.pool_variants.push((label.into(), config));
        self
    }

    /// Number of scenario rows (at least 1: the implicit base scenario).
    pub fn n_scenarios(&self) -> usize {
        self.scenarios.len().max(1)
    }

    /// Number of pool variants (at least 1: the implicit base variant).
    pub fn n_variants(&self) -> usize {
        self.pool_variants.len().max(1)
    }

    /// Number of seeds per (scenario, variant) row.
    pub fn n_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Total cells in the grid.
    pub fn n_jobs(&self) -> usize {
        self.n_scenarios() * self.n_variants() * self.n_seeds()
    }

    /// Combined cell label: the scenario label, suffixed with the
    /// variant label when a variant axis is declared.
    fn cell_label(&self, scenario_label: &Arc<str>, variant: usize) -> Arc<str> {
        match self.pool_variants.get(variant) {
            Some((vlabel, _)) => format!("{scenario_label}/{vlabel}").into(),
            None => scenario_label.clone(),
        }
    }

    /// Cell identity at `index` in enumeration order.
    pub fn meta(&self, index: usize) -> JobMeta {
        assert!(index < self.n_jobs(), "job index {index} out of range");
        let per_scenario = self.n_variants() * self.n_seeds();
        let scenario = index / per_scenario;
        let variant = (index % per_scenario) / self.n_seeds();
        let seed = self.seeds[index % self.n_seeds()];
        let scenario_label: Arc<str> = match self.scenarios.get(scenario) {
            Some(s) => s.label.clone(),
            None => "base".into(),
        };
        let label = self.cell_label(&scenario_label, variant);
        JobMeta { index, scenario, variant, label, seed }
    }

    /// Materialize the job list in enumeration order.
    pub fn jobs(&self) -> Vec<Job> {
        self.jobs_range(0, self.n_jobs())
    }

    /// Materialize only the jobs with index in `lo..hi` — exactly the
    /// slice `jobs()[lo..hi]`, without building the rest of the grid.
    ///
    /// This is the sharded executor's enumeration primitive: a
    /// million-cell sweep materializes one bounded block at a time, so
    /// peak job memory is `O(block)` instead of `O(grid)`. Scenario
    /// mutations are applied once per scenario block that intersects the
    /// range, so a chunked enumeration performs the same config work as
    /// the monolithic one.
    pub fn jobs_range(&self, lo: usize, hi: usize) -> Vec<Job> {
        assert!(lo <= hi && hi <= self.n_jobs(), "job range {lo}..{hi} out of bounds");
        let n_seeds = self.n_seeds();
        let per_scenario = self.n_variants() * n_seeds;
        let mut jobs = Vec::with_capacity(hi - lo);
        if lo == hi {
            return jobs;
        }
        let first_scenario = lo / per_scenario;
        let last_scenario = (hi - 1) / per_scenario;
        for scenario_idx in first_scenario..=last_scenario {
            let scenario = self.scenarios.get(scenario_idx);
            let mut cfg = self.base.clone();
            if let Some(s) = scenario {
                (s.mutate)(&mut cfg);
            }
            let specs =
                scenario.and_then(|s| s.specs.clone()).unwrap_or_else(|| self.specs.clone());
            let batch_size = scenario.and_then(|s| s.batch_size).unwrap_or(self.batch_size);
            let scenario_label: Arc<str> = match scenario {
                Some(s) => s.label.clone(),
                None => "base".into(),
            };
            for variant_idx in 0..self.n_variants() {
                // This (scenario, variant) block spans a contiguous index
                // run; clip it against the requested range.
                let block_start = scenario_idx * per_scenario + variant_idx * n_seeds;
                let cell_lo = lo.max(block_start);
                let cell_hi = hi.min(block_start + n_seeds);
                if cell_lo >= cell_hi {
                    continue;
                }
                let mut cfg = cfg.clone();
                if let Some((_, pool)) = self.pool_variants.get(variant_idx) {
                    cfg.pool = *pool;
                }
                let label = self.cell_label(&scenario_label, variant_idx);
                for index in cell_lo..cell_hi {
                    let seed = self.seeds[index - block_start];
                    jobs.push(Job {
                        index,
                        scenario: scenario_idx,
                        label: label.clone(),
                        seed,
                        cfg: RunConfig { seed, ..cfg.clone() },
                        specs: specs.clone(),
                        batch_size,
                        population: self.population.clone(),
                    });
                }
            }
        }
        jobs
    }

    /// The seed axis, in declaration order.
    pub fn seed_axis(&self) -> &[u64] {
        &self.seeds
    }

    /// FNV-1a fingerprint of the grid's *shape*: axis sizes, seeds, and
    /// scenario/variant labels. Shard manifests store it so a resume
    /// against a differently shaped (or relabeled) grid is rejected
    /// instead of silently merging incompatible aggregates. Scenario
    /// mutation closures cannot be hashed — a resumed sweep is the
    /// caller's promise that the same code built the grid.
    pub fn shape_fingerprint(&self) -> u64 {
        let mut h = clamshell_obs::Fnv::new();
        for word in [self.n_scenarios() as u64, self.n_variants() as u64, self.n_seeds() as u64] {
            h.write(&word.to_le_bytes());
        }
        for &seed in &self.seeds {
            h.write(&seed.to_le_bytes());
        }
        for s in 0..self.n_scenarios() {
            let label: Arc<str> = match self.scenarios.get(s) {
                Some(s) => s.label.clone(),
                None => "base".into(),
            };
            h.write(label.as_bytes());
            h.write(&[0]); // label separator
        }
        for (label, _) in &self.pool_variants {
            h.write(label.as_bytes());
            h.write(&[0]);
        }
        h.finish()
    }

    /// Run the whole grid, collecting reports in enumeration order, or
    /// fail fast with a [`GridError`] on a structurally invalid grid
    /// before any cell runs. `threads = None` resolves via
    /// [`threads::resolve`] (`CLAMSHELL_THREADS`, else available
    /// parallelism).
    ///
    /// Cells run on the [block pipeline](crate::pool) with no window and
    /// the calling thread as worker 0, and results merge in job-index
    /// order, so reports are byte-identical to a serial run at any thread
    /// count.
    pub fn try_run_all(&self, threads: Option<usize>) -> Result<Vec<RunReport>, GridError> {
        self.validate()?;
        let mut reports = Vec::with_capacity(self.n_jobs());
        let plan = Plan::whole(self.n_jobs(), threads::resolve(threads));
        let ControlFlow::Continue(()) = self.execute(plan, false, &mut |_, report| {
            reports.push(report);
            ControlFlow::<Infallible>::Continue(())
        });
        Ok(reports)
    }

    /// [`Self::try_run_all`], grouped by row: `out[r][k]` is the `r`-th
    /// (scenario, variant) row under the `k`-th seed — rows enumerate
    /// scenario-major, variant-mid, so without a variant axis `r` is
    /// simply the scenario index.
    pub fn run_grouped(&self, threads: Option<usize>) -> Result<Vec<Vec<RunReport>>, GridError> {
        let mut reports = self.try_run_all(threads)?.into_iter();
        let rows = self.n_scenarios() * self.n_variants();
        Ok((0..rows).map(|_| reports.by_ref().take(self.n_seeds()).collect()).collect())
    }

    /// Stream the grid through `agg`: each report is handed to the
    /// aggregator in enumeration order as soon as its prefix is complete,
    /// then dropped. The pipeline's window bounds the reports (and cells)
    /// in memory, so peak memory does not grow with the grid.
    ///
    /// # Panics
    ///
    /// Panics with "invalid grid" if [`Self::validate`] fails; this
    /// happens before any cell runs. A panicking cell re-raises here too.
    pub fn run_streaming(&self, threads: Option<usize>, agg: &mut dyn Aggregator) -> ExecStatus {
        if let Err(e) = self.validate() {
            panic!("invalid grid: {e}");
        }
        let plan = Plan::whole(self.n_jobs(), threads::resolve(threads));
        let ControlFlow::Continue(()) = self.execute(plan, true, &mut |index, report| {
            agg.consume(&self.meta(index), &report);
            ControlFlow::<Infallible>::Continue(())
        });
        ExecStatus { completed: self.n_jobs(), total: self.n_jobs() }
    }

    /// Run `plan`'s cells on [`pool::pipeline`], each block made by
    /// [`Self::jobs_range`] on the thread that claimed it.
    pub(crate) fn execute<B>(
        &self,
        plan: Plan,
        windowed: bool,
        sink: &mut dyn FnMut(usize, RunReport) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        pool::pipeline(
            plan,
            windowed,
            |lo, hi| self.jobs_range(lo, hi),
            |_, _, job: Job| job.run(),
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect()
    }

    fn small_grid() -> Grid {
        Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[10, 20, 30])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None)
    }

    #[test]
    fn enumeration_is_scenario_major_seed_minor() {
        let grid = small_grid();
        assert_eq!(grid.n_jobs(), 6);
        let jobs = grid.jobs();
        let got: Vec<(usize, &str, u64)> =
            jobs.iter().map(|j| (j.scenario, &*j.label, j.seed)).collect();
        assert_eq!(
            got,
            vec![
                (0, "sm", 10),
                (0, "sm", 20),
                (0, "sm", 30),
                (1, "nosm", 10),
                (1, "nosm", 20),
                (1, "nosm", 30),
            ]
        );
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
            assert_eq!(j.cfg.seed, j.seed);
            let meta = grid.meta(i);
            assert_eq!((meta.scenario, &*meta.label, meta.seed), got[i]);
        }
        // Scenario mutations applied on top of the base.
        assert!(jobs[0].cfg.straggler.is_some());
        assert!(jobs[3].cfg.straggler.is_none());
    }

    #[test]
    fn gridless_base_is_one_implicit_scenario() {
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[7, 8]);
        assert_eq!(grid.n_scenarios(), 1);
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(&*jobs[0].label, "base");
        assert_eq!(&*grid.meta(1).label, "base");
    }

    #[test]
    fn scenario_with_overrides_specs_and_batch() {
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .scenario("default-shape", |_| {})
        .scenario_with("wide", |_| {}, specs(8), 2);
        let jobs = grid.jobs();
        assert_eq!(jobs[0].specs.len(), 4);
        assert_eq!(jobs[0].batch_size, 4);
        assert_eq!(jobs[1].specs.len(), 8);
        assert_eq!(jobs[1].batch_size, 2);
    }

    #[test]
    fn jobs_range_matches_full_enumeration() {
        use clamshell_core::CheckoutStrategy;
        // A grid exercising every axis: 2 scenarios × 2 variants × 3
        // seeds, with a spec/batch override on one scenario.
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[10, 20, 30])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario_with("wide", |c| c.straggler = None, specs(8), 2)
        .pool_variant("fifo", PoolConfig::default())
        .pool_variant(
            "lifo",
            PoolConfig { strategy: CheckoutStrategy::Lifo, ..Default::default() },
        );
        let all = grid.jobs();
        assert_eq!(all.len(), 12);
        let key = |j: &Job| {
            (
                j.index,
                j.scenario,
                j.label.to_string(),
                j.seed,
                j.cfg.seed,
                j.cfg.straggler.is_some(),
                j.cfg.pool.strategy,
                j.specs.len(),
                j.batch_size,
            )
        };
        for lo in 0..=all.len() {
            for hi in lo..=all.len() {
                let chunk = grid.jobs_range(lo, hi);
                assert_eq!(chunk.len(), hi - lo, "range {lo}..{hi}");
                for (a, b) in chunk.iter().zip(&all[lo..hi]) {
                    assert_eq!(key(a), key(b), "range {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn jobs_range_rejects_out_of_bounds() {
        let grid = small_grid();
        let _ = grid.jobs_range(0, grid.n_jobs() + 1);
    }

    #[test]
    fn shape_fingerprint_tracks_structure() {
        let base = small_grid().shape_fingerprint();
        assert_eq!(small_grid().shape_fingerprint(), base, "deterministic");
        // Different seeds, labels, or axis sizes all change the print.
        assert_ne!(small_grid().seeds(&[10, 20, 31]).shape_fingerprint(), base);
        assert_ne!(small_grid().seeds(&[10, 20]).shape_fingerprint(), base);
        assert_ne!(
            small_grid().pool_variant("fifo", PoolConfig::default()).shape_fingerprint(),
            base
        );
        let relabeled = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[10, 20, 30])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("other", |c| c.straggler = None);
        assert_ne!(relabeled.shape_fingerprint(), base);
    }

    #[test]
    fn grouped_matches_flat_order() {
        let grid = small_grid();
        let flat = grid.try_run_all(Some(2)).expect("small grid is valid");
        let grouped = grid.run_grouped(Some(2)).expect("small grid is valid");
        assert_eq!(grouped.len(), 2);
        for (s, row) in grouped.iter().enumerate() {
            assert_eq!(row.len(), 3);
            for (k, report) in row.iter().enumerate() {
                assert_eq!(
                    serde_json::to_string(report).unwrap(),
                    serde_json::to_string(&flat[s * 3 + k]).unwrap()
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let grid = small_grid();
        let one = grid.try_run_all(Some(1)).expect("small grid is valid");
        let four = grid.try_run_all(Some(4)).expect("small grid is valid");
        assert_eq!(serde_json::to_string(&one).unwrap(), serde_json::to_string(&four).unwrap());
    }

    #[test]
    fn empty_seed_axis_is_a_structured_error() {
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[]);
        assert_eq!(grid.validate(), Err(GridError::EmptySeedAxis));
        let err = grid.try_run_all(Some(1)).unwrap_err();
        assert_eq!(err, GridError::EmptySeedAxis);
        assert_eq!(err.to_string(), "grid has an empty seed axis");
        assert_eq!(grid.run_grouped(Some(1)).unwrap_err(), GridError::EmptySeedAxis);
    }

    #[test]
    fn duplicate_scenario_labels_are_a_structured_error() {
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("base", |_| {})
        .scenario("sm", |_| {});
        let err = grid.try_run_all(Some(1)).unwrap_err();
        assert_eq!(err, GridError::DuplicateScenario { label: "sm".into() });
        assert!(err.to_string().contains("\"sm\""));
        // Distinct labels validate fine.
        assert_eq!(small_grid().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid grid")]
    fn panicking_entry_point_fails_fast_before_any_job() {
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[]);
        let mut agg = crate::MetricsAggregator::new(1, crate::Metric::standard());
        let _ = grid.run_streaming(Some(1), &mut agg);
    }

    #[test]
    fn pool_variant_axis_multiplies_and_labels_cells() {
        use clamshell_core::CheckoutStrategy;
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .seeds(&[10, 20])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None)
        .pool_variant("fifo", PoolConfig::default())
        .pool_variant(
            "lifo",
            PoolConfig { strategy: CheckoutStrategy::Lifo, ..Default::default() },
        );
        assert_eq!(grid.n_variants(), 2);
        assert_eq!(grid.n_jobs(), 2 * 2 * 2);
        let jobs = grid.jobs();
        let got: Vec<(usize, &str, u64)> =
            jobs.iter().map(|j| (j.scenario, &*j.label, j.seed)).collect();
        assert_eq!(
            got,
            vec![
                (0, "sm/fifo", 10),
                (0, "sm/fifo", 20),
                (0, "sm/lifo", 10),
                (0, "sm/lifo", 20),
                (1, "nosm/fifo", 10),
                (1, "nosm/fifo", 20),
                (1, "nosm/lifo", 10),
                (1, "nosm/lifo", 20),
            ]
        );
        for (i, &expected) in got.iter().enumerate() {
            let meta = grid.meta(i);
            assert_eq!((meta.scenario, &*meta.label, meta.seed), expected);
            assert_eq!(meta.variant, (i / 2) % 2);
        }
        // Variant configs land in the job configs; scenario mutations
        // still apply.
        assert_eq!(jobs[0].cfg.pool.strategy, CheckoutStrategy::Fifo);
        assert_eq!(jobs[2].cfg.pool.strategy, CheckoutStrategy::Lifo);
        assert!(jobs[2].cfg.straggler.is_some());
        assert!(jobs[6].cfg.straggler.is_none());
    }

    #[test]
    fn no_variant_axis_is_the_historical_grid() {
        // Declaring zero variants must reproduce the exact labels,
        // enumeration, and job count of the pre-variant grid.
        let grid = small_grid();
        assert_eq!(grid.n_variants(), 1);
        assert_eq!(grid.n_jobs(), 6);
        for (i, j) in grid.jobs().iter().enumerate() {
            assert!(!j.label.contains('/'), "no variant suffix: {}", j.label);
            assert_eq!(grid.meta(i).variant, 0);
        }
    }

    #[test]
    fn duplicate_variant_labels_are_a_structured_error() {
        let grid = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4),
            4,
        )
        .pool_variant("fifo", PoolConfig::default())
        .pool_variant("fifo", PoolConfig::default());
        let err = grid.try_run_all(Some(1)).unwrap_err();
        assert_eq!(err, GridError::DuplicateVariant { label: "fifo".into() });
        assert!(err.to_string().contains("\"fifo\""));
    }
}
