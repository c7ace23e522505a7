//! Pool lifecycle: checkout strategies, idle timeouts, and generations
//! measured across the adversity scenario catalog.
//!
//! The paper treats the retainer pool as a fixed-size set (§4.1); this
//! experiment drives the production-pool knobs ([`PoolConfig`]) through
//! every scenario and reports cost, latency, and — for scenarios with
//! platform outages — the recovery time from the last blackout to run
//! completion. Expectations: LIFO's hot working set pays off under
//! `bursty` arrivals (recently idle workers are re-dispatched first),
//! and generation-based lazy retirement bounds `blackout` recovery
//! without an eager pool scan.
//!
//! Not part of `repro --all`: the experiment postdates the recorded
//! EXPERIMENTS.md transcript, so it runs by name (`repro
//! pool_lifecycle`) to keep the `--all` stdout stable.

use crate::util::{f2, header, mean_of, ratio, row, Opts};
use clamshell_core::adversity::OutageFault;
use clamshell_core::metrics::RunReport;
use clamshell_core::{CheckoutStrategy, PoolConfig, RunConfig};
use clamshell_scenarios::catalog;
use clamshell_sim::faults::OutageSchedule;
use clamshell_sim::time::SimDuration;
use clamshell_sweep::Grid;
use clamshell_trace::Population;

fn base_config(seed: u64) -> RunConfig {
    RunConfig { pool_size: 8, ng: 5, seed, ..Default::default() }
        .with_straggler()
        .with_maintenance()
}

/// The pool-variant axis: both checkout strategies, each with and
/// without a reserve idle timeout, plus generation-based retirement.
/// The timeout is 30 s so that it fires within these few-minute runs:
/// one of several minutes releases no reserve worker, and the `+idle`
/// rows would repeat their plain twins.
fn variants() -> Vec<(&'static str, PoolConfig)> {
    let fifo = PoolConfig::default();
    let lifo = PoolConfig { strategy: CheckoutStrategy::Lifo, ..PoolConfig::default() };
    let idle = Some(SimDuration::from_secs(30));
    vec![
        ("fifo", fifo),
        ("lifo", lifo),
        ("fifo+idle", PoolConfig { idle_timeout: idle, ..fifo }),
        ("lifo+idle", PoolConfig { idle_timeout: idle, ..lifo }),
        ("fifo+gen", PoolConfig { generations: true, ..fifo }),
    ]
}

/// Seconds from the end of the last completed outage window to run
/// completion — how long the run needed to drain after the final
/// blackout. `None` when the scenario has no outage fault or no window
/// completed within the run.
fn recovery_secs(report: &RunReport, seed: u64, outage: OutageFault) -> Option<f64> {
    // The runner's schedule is fully determined by (seed, means), so the
    // exact outage windows of the measured run can be reconstructed.
    let mut sched = OutageSchedule::new(
        seed,
        SimDuration::from_secs_f64(outage.mean_uptime_secs),
        SimDuration::from_secs_f64(outage.mean_outage_secs),
    );
    sched.defer(report.finished);
    let last_end = sched
        .generated()
        .iter()
        .map(|&(_, end)| end)
        .rfind(|&end| end <= report.finished && end >= report.started)?;
    Some(report.finished.since(last_end).as_secs_f64())
}

/// Cost / latency / recovery per (scenario, pool variant) — `repro
/// pool_lifecycle`.
pub fn pool_lifecycle(opts: &Opts) {
    header(
        "pool_lifecycle",
        "Checkout strategies, idle timeouts & generations across the scenario catalog",
        "not in the paper; the retainer pool of \u{a7}4.1 rebuilt as a production \
         resource pool",
    );
    let n_tasks = opts.n(48);
    let mut grid = Grid::new(
        base_config(opts.seeds[0]),
        Population::mturk_live(),
        crate::util::binary_specs(n_tasks, 5),
        8,
    )
    .seeds(&opts.seeds);
    for def in catalog() {
        grid = grid.scenario(def.name, |cfg| def.apply(cfg));
    }
    for (label, pool) in variants() {
        grid = grid.pool_variant(label, pool);
    }
    // Rows are (scenario, variant) cells: scenario-major, variant-mid,
    // seeds within each cell.
    let grouped = grid.run_grouped(opts.threads).expect("catalog and variant labels are unique");

    row(&[
        "scenario".into(),
        "pool".into(),
        "cost_usd".into(),
        "latency_s".into(),
        "d.lat".into(),
        "recovery_s".into(),
        "expired".into(),
        "stale".into(),
    ]);
    let n_variants = variants().len();
    for (s_idx, def) in catalog().iter().enumerate() {
        let outage = def.config_from(&base_config(opts.seeds[0])).adversity.and_then(|a| a.outage);
        // The FIFO variant is the historical pool: the latency baseline
        // for the other variants of the same scenario.
        let fifo_lat = mean_of(&grouped[s_idx * n_variants], |r| r.total_secs());
        for (v_idx, (label, _)) in variants().iter().enumerate() {
            let reports = &grouped[s_idx * n_variants + v_idx];
            let lat = mean_of(reports, |r| r.total_secs());
            let recovery = outage.map(|o| {
                let per_seed: Vec<f64> = reports
                    .iter()
                    .zip(&opts.seeds)
                    .filter_map(|(r, &seed)| recovery_secs(r, seed, o))
                    .collect();
                per_seed.iter().sum::<f64>() / per_seed.len().max(1) as f64
            });
            row(&[
                def.name.into(),
                (*label).into(),
                f2(mean_of(reports, |r| r.cost.total_micro() as f64 / 1e6)),
                f2(lat),
                ratio(lat, fifo_lat),
                recovery.map_or_else(|| "-".into(), f2),
                f2(mean_of(reports, |r| r.reserve_expired as f64)),
                f2(mean_of(reports, |r| r.stale_retired as f64)),
            ]);
        }
    }
    println!(
        "  expectation: LIFO keeps a hot working set (watch bursty); generations \
         retire stale members lazily after blackouts (stale > 0, no eager scan); \
         idle timeouts trade reserve wait cost for slower surge response"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_core::runner::run_batched;

    #[test]
    fn variant_labels_are_unique() {
        let mut labels: Vec<&str> = variants().iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), variants().len());
    }

    #[test]
    fn recovery_is_reconstructed_from_the_seed() {
        let outage = OutageFault { mean_uptime_secs: 120.0, mean_outage_secs: 45.0 };
        let def = clamshell_scenarios::find("blackout").unwrap();
        let cfg = def.config_from(&base_config(11));
        let report =
            run_batched(cfg, Population::mturk_live(), crate::util::binary_specs(16, 5), 8);
        if let Some(r) = recovery_secs(&report, 11, outage) {
            assert!(r >= 0.0);
            assert!(r <= report.total_secs());
        }
    }

    #[test]
    fn idle_variants_release_reserve_workers() {
        // Otherwise the +idle rows just repeat their plain twins. The
        // cell is benign × fifo+idle at the --quick workload (12 tasks).
        let (_, pool) = variants().into_iter().find(|(l, _)| *l == "fifo+idle").unwrap();
        let def = clamshell_scenarios::find("benign").unwrap();
        let cfg = def.config_from(&base_config(1)).with_pool(pool);
        let report =
            run_batched(cfg, Population::mturk_live(), crate::util::binary_specs(12, 5), 8);
        assert!(report.reserve_expired > 0, "the idle timeout must release reserve workers");
    }

    #[test]
    fn lifecycle_sweep_runs_at_tiny_scale() {
        let opts = Opts { seeds: vec![1], scale: 0.05, ..Default::default() };
        pool_lifecycle(&opts);
    }
}
