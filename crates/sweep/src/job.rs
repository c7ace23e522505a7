//! The concrete sweep job: one `(RunConfig, task specs, seed)` cell.

use clamshell_core::metrics::RunReport;
use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_trace::Population;
use std::sync::Arc;

/// One cell of a sweep grid, ready to run.
///
/// The config already carries its seed; specs and population are shared
/// (`Arc`) across the grid so enumerating a million cells does not clone
/// a million task lists.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the grid's enumeration order (scenario-major,
    /// seed-minor). Results are merged back in this order.
    pub index: usize,
    /// Index of the scenario this cell belongs to.
    pub scenario: usize,
    /// The scenario's display label.
    pub label: Arc<str>,
    /// The cell's seed (also stored in `cfg.seed`).
    pub seed: u64,
    /// Fully resolved run configuration.
    pub cfg: RunConfig,
    /// Task specs for this cell.
    pub specs: Arc<Vec<TaskSpec>>,
    /// Batch size handed to the batched runner.
    pub batch_size: usize,
    /// Worker population driving the simulation.
    pub population: Arc<Population>,
}

impl Job {
    /// Run the cell's simulation. Pure: the report is a function of the
    /// job alone, so cells can run on any thread in any order.
    pub fn run(&self) -> RunReport {
        run_batched(
            self.cfg.clone(),
            (*self.population).clone(),
            self.specs.to_vec(),
            self.batch_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_sim::json;

    #[test]
    fn job_run_matches_direct_run_batched() {
        let cfg = RunConfig { pool_size: 4, ng: 2, seed: 5, ..Default::default() };
        let specs: Vec<TaskSpec> = (0..6).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
        let pop = Population::mturk_live();
        let job = Job {
            index: 0,
            scenario: 0,
            label: "base".into(),
            seed: 5,
            cfg: cfg.clone(),
            specs: Arc::new(specs.clone()),
            batch_size: 3,
            population: Arc::new(pop.clone()),
        };
        let via_job = job.run();
        let direct = run_batched(cfg, pop, specs, 3);
        assert_eq!(json::to_string(&via_job), json::to_string(&direct));
    }
}
