//! `repro megasweep`: the sharded mega-grid scale-out walkthrough.
//!
//! Runs a seed × scenario grid through the sharded executor
//! ([`run_sharded`]): cells are materialized and run in small blocks,
//! every shard checkpoints the cumulative streaming aggregate to an
//! FNV-chained manifest, and a killed run restarts at the last
//! completed shard (`--resume`). The final table on stdout is
//! **bit-identical** whether the sweep ran unsharded, sharded, or was
//! killed and resumed, at any thread count — CI SIGKILLs a run
//! mid-sweep, resumes it, and byte-compares stdout against an
//! uninterrupted run at `CLAMSHELL_THREADS=1` and `=4`.
//!
//! Progress and resume diagnostics go to stderr so stdout stays the
//! comparable artifact.

use crate::util::{binary_specs, Opts};
use clamshell_core::RunConfig;
use clamshell_sweep::shard::{run_sharded, ShardOptions};
use clamshell_sweep::{CancelToken, Grid, Metric, MetricsAggregator};
use clamshell_trace::Population;
use std::path::PathBuf;

/// Mega-sweep knobs parsed from the `repro megasweep` command line.
#[derive(Debug, Clone)]
pub struct MegasweepArgs {
    /// Total grid cells before `--quick` scaling (split across the
    /// scenario axis; floored so every scenario keeps one seed).
    pub cells: usize,
    /// Cells per shard — the memory bound and checkpoint granularity.
    pub shard_size: usize,
    /// Shard-manifest path: one line appended per shard, synced in
    /// groups of at least 1,024 cells and at the end (see
    /// [`ShardOptions::manifest`]).
    pub manifest: PathBuf,
    /// Resume from the manifest if it exists.
    pub resume: bool,
}

impl Default for MegasweepArgs {
    fn default() -> Self {
        MegasweepArgs {
            cells: 256,
            shard_size: 32,
            manifest: PathBuf::from("megasweep.manifest.jsonl"),
            resume: false,
        }
    }
}

/// The mega-grid: the standard two-scenario cell (straggler mitigation
/// on/off) crossed with `n_seeds` seeds. Cells are deliberately small —
/// the point of the walkthrough is shard mechanics, not cell cost.
fn mega_grid(n_seeds: usize) -> Grid {
    let seeds: Vec<u64> = (1..=n_seeds as u64).collect();
    Grid::new(
        RunConfig { pool_size: 4, ng: 2, ..Default::default() },
        Population::mturk_live(),
        binary_specs(4, 2),
        4,
    )
    .seeds(&seeds)
    .scenario("SM", |c| c.straggler = Some(Default::default()))
    .scenario("NoSM", |c| c.straggler = None)
}

/// Run the sharded walkthrough; `Err` carries the user-facing message.
pub fn megasweep(opts: &Opts, args: &MegasweepArgs) -> Result<(), String> {
    if args.shard_size == 0 {
        return Err("--shard-size must be at least 1".into());
    }
    let cells = opts.n(args.cells);
    let n_seeds = (cells / 2).max(1);
    let grid = mega_grid(n_seeds);
    let mut agg = MetricsAggregator::new(grid.n_scenarios(), Metric::standard());
    println!(
        "\n== megasweep: {} cells ({} scenarios x {} seeds), shard size {} ==",
        grid.n_jobs(),
        grid.n_scenarios(),
        n_seeds,
        args.shard_size
    );

    let shard_opts = ShardOptions {
        shard_size: args.shard_size,
        manifest: args.manifest.clone(),
        resume: args.resume,
        threads: opts.threads,
    };
    let shard_size = args.shard_size;
    let total_cells = grid.n_jobs();
    let outcome = run_sharded(
        &grid,
        &mut agg,
        &shard_opts,
        &CancelToken::new(),
        Some(&mut |done, _| {
            // One stderr tick per shard boundary; stdout stays clean.
            if done % shard_size == 0 || done == total_cells {
                eprintln!("megasweep: {done}/{total_cells} cells");
            }
        }),
    )
    .map_err(|e| format!("megasweep failed: {e}"))?;
    eprintln!(
        "megasweep: {} shards ({} resumed from {}), {} of {} cells",
        outcome.n_shards,
        outcome.resumed_shards,
        args.manifest.display(),
        outcome.completed,
        outcome.total
    );

    // The deterministic artifact: one row per scenario, mean ± std per
    // metric over the scenario's seeds.
    let mut head = vec![format!("{:<8}", "scenario")];
    head.extend(agg.metrics().iter().map(|m| format!("{:>24}", m.name)));
    println!("  {}", head.join(" "));
    for s in 0..grid.n_scenarios() {
        let label = grid.meta(s * grid.n_variants() * grid.n_seeds()).label;
        let mut cells = vec![format!("{label:<8}")];
        for m in agg.metrics().to_vec() {
            cells.push(format!(
                "{:>24}",
                format!("{:.4} ± {:.4}", agg.mean(s, m.name), agg.std(s, m.name))
            ));
        }
        println!("  {}", cells.join(" "));
    }
    println!(
        "  ({} seeds per scenario; sharded fold is bit-identical to the unsharded sweep)",
        grid.n_seeds()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_manifest(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clamshell_megasweep_{tag}.jsonl"))
    }

    #[test]
    fn megasweep_runs_the_quick_cell() {
        let opts = Opts { seeds: vec![1], scale: 0.05, threads: Some(2) };
        let manifest = tmp_manifest("quick");
        let args = MegasweepArgs { manifest: manifest.clone(), ..Default::default() };
        assert!(megasweep(&opts, &args).is_ok());
        assert!(manifest.exists(), "manifest written");
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn megasweep_resume_over_a_finished_manifest_is_ok() {
        let opts = Opts { seeds: vec![1], scale: 0.05, threads: Some(1) };
        let manifest = tmp_manifest("resume");
        let args = MegasweepArgs { manifest: manifest.clone(), ..Default::default() };
        assert!(megasweep(&opts, &args).is_ok());
        let resume = MegasweepArgs { resume: true, ..args };
        assert!(megasweep(&opts, &resume).is_ok());
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn megasweep_rejects_zero_shard_size() {
        let opts = Opts { seeds: vec![1], scale: 0.05, threads: Some(1) };
        let args =
            MegasweepArgs { shard_size: 0, manifest: tmp_manifest("zero"), ..Default::default() };
        let err = megasweep(&opts, &args).unwrap_err();
        assert!(err.contains("--shard-size"), "{err}");
    }
}
