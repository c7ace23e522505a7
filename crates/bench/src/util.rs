//! Shared experiment plumbing: options, seed averaging, table printing.

use clamshell_core::metrics::RunReport;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sweep::{threads, Grid};
use clamshell_trace::Population;

/// Global harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Scale factor in (0, 1] shrinking task counts / budgets for smoke
    /// runs (`--quick` sets 0.25).
    pub scale: f64,
    /// Worker threads for the sweep engine; `None` resolves via the
    /// `CLAMSHELL_THREADS` environment variable, else available
    /// parallelism. Thread count never changes experiment output — the
    /// engine merges results in job-index order.
    pub threads: Option<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { seeds: vec![1, 2, 3], scale: 1.0, threads: None }
    }
}

impl Opts {
    /// Scale an experiment size.
    pub fn n(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(1)
    }

    /// Resolved sweep-engine thread count.
    pub fn thread_count(&self) -> usize {
        threads::resolve(self.threads)
    }
}

/// Binary-classification task specs of `ng` records each.
pub fn binary_specs(n_tasks: usize, ng: usize) -> Vec<TaskSpec> {
    (0..n_tasks).map(|i| TaskSpec::new(vec![(i % 2) as u32; ng])).collect()
}

/// Ten-class task specs (the MNIST-like setting of Figure 3).
pub fn digit_specs(n_tasks: usize, ng: usize) -> Vec<TaskSpec> {
    (0..n_tasks).map(|i| TaskSpec::new((0..ng).map(|j| ((i + j) % 10) as u32).collect())).collect()
}

/// Run one configuration over `opts.seeds` on `opts.threads` sweep
/// threads and return the reports in seed order. Reports merge in job
/// order, so the output is the same at any thread count.
pub fn run_seeds_opts(
    opts: &Opts,
    base: &RunConfig,
    population: &Population,
    specs: &[TaskSpec],
    batch_size: usize,
) -> Vec<RunReport> {
    Grid::new(base.clone(), population.clone(), specs.to_vec(), batch_size)
        .seeds(&opts.seeds)
        .try_run_all(opts.threads)
        .expect("a scenario-free grid is valid whenever its seed axis is non-empty")
}

/// A labeled config mutation, as accepted by [`run_scenarios`].
pub type ScenarioSpec = (String, Box<dyn Fn(&mut RunConfig) + Send + Sync>);

/// Run labeled scenario mutations of `base` × `opts.seeds` through the
/// sweep engine in one fan-out.
///
/// Returns reports grouped scenario-major (declaration order), seeds in
/// `opts.seeds` order within each group — the shape experiment tables
/// print from.
pub fn run_scenarios(
    opts: &Opts,
    base: &RunConfig,
    population: &Population,
    specs: &[TaskSpec],
    batch_size: usize,
    scenarios: Vec<ScenarioSpec>,
) -> Vec<Vec<RunReport>> {
    let mut grid =
        Grid::new(base.clone(), population.clone(), specs.to_vec(), batch_size).seeds(&opts.seeds);
    for (label, mutate) in scenarios {
        grid = grid.scenario(label, mutate);
    }
    grid.run_grouped(opts.threads).expect("experiment scenario labels are unique")
}

/// Mean of a per-report metric.
pub fn mean_of(reports: &[RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

/// Print the standard experiment header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("  paper: {paper_claim}");
    println!("================================================================");
}

/// Print one row of a simple aligned table.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("  {}", line.join(" "));
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a ratio as "N.NNx".
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".into()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_scaling_floors_at_one() {
        let o = Opts { seeds: vec![1], scale: 0.001, ..Default::default() };
        assert_eq!(o.n(100), 1);
        let full = Opts::default();
        assert_eq!(full.n(100), 100);
    }

    #[test]
    fn specs_have_requested_shape() {
        let b = binary_specs(4, 5);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|s| s.ng() == 5));
        let d = digit_specs(3, 10);
        assert!(d.iter().all(|s| s.truths.iter().all(|&t| t < 10)));
    }

    #[test]
    fn run_seeds_opts_produces_one_report_per_seed() {
        let opts = Opts { seeds: vec![1, 2], ..Default::default() };
        let cfg = RunConfig { pool_size: 4, ..Default::default() };
        let reports =
            run_seeds_opts(&opts, &cfg, &Population::mturk_live(), &binary_specs(4, 2), 4);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.tasks.len() == 4));
    }

    #[test]
    fn run_scenarios_groups_scenario_major_seed_minor() {
        let opts = Opts { seeds: vec![1, 2], ..Default::default() };
        let cfg = RunConfig { pool_size: 4, ..Default::default() };
        let pop = Population::mturk_live();
        let specs = binary_specs(4, 2);
        let grouped = run_scenarios(
            &opts,
            &cfg,
            &pop,
            &specs,
            4,
            vec![
                ("sm".into(), Box::new(|c: &mut RunConfig| c.straggler = Some(Default::default()))),
                ("base".into(), Box::new(|_: &mut RunConfig| {})),
            ],
        );
        assert_eq!(grouped.len(), 2);
        assert!(grouped.iter().all(|row| row.len() == 2));
        // The identity scenario reproduces run_seeds_opts exactly.
        let direct = run_seeds_opts(&opts, &cfg, &pop, &specs, 4);
        for (a, b) in grouped[1].iter().zip(&direct) {
            assert_eq!(a.total_secs(), b.total_secs());
            assert_eq!(a.cost.total_micro(), b.cost.total_micro());
        }
    }
}
