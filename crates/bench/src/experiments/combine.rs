//! §6.4 — combining per-batch techniques (Figures 12–14) and the §6.6
//! headline numbers.

use crate::util::{binary_specs, header, mean_of, ratio, Opts};
use clamshell_core::baselines::headline_raw_labeling;
use clamshell_core::config::{MaintenanceConfig, StragglerConfig};
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sweep::{pool, Grid};
use clamshell_trace::calibration::headline as paper;
use clamshell_trace::Population;

/// The four SM × PM cells as one sweep grid over `seeds`.
fn sm_pm_grid(pop: &Population, specs: Vec<TaskSpec>, seeds: &[u64]) -> (Grid, Vec<&'static str>) {
    let mut grid = Grid::new(RunConfig::default(), pop.clone(), specs, 15).seeds(seeds);
    let mut names = Vec::new();
    for (sm, pm) in [(false, false), (false, true), (true, false), (true, true)] {
        let (cfg, name) = grid_cfg(sm, pm);
        names.push(name);
        grid = grid.scenario(name, move |c| *c = cfg.clone());
    }
    (grid, names)
}

fn grid_cfg(sm: bool, pm: bool) -> (RunConfig, &'static str) {
    let cfg = RunConfig {
        pool_size: 15,
        ng: 5,
        straggler: sm.then(StragglerConfig::default),
        maintenance: pm.then(MaintenanceConfig::pm8),
        ..Default::default()
    };
    let name = match (sm, pm) {
        (false, false) => "NoSM+PMinf",
        (false, true) => "NoSM+PM8",
        (true, false) => "SM+PMinf",
        (true, true) => "SM+PM8",
    };
    (cfg, name)
}

/// Figure 12: the 2×2 grid of straggler mitigation × pool maintenance.
pub fn fig12(opts: &Opts) {
    header(
        "Figure 12",
        "End-to-end latency / variance / cost per SM x PM configuration",
        "combining techniques still beats neither-technique by up to 6x latency and \
         15x std; occasional destructive interference between SM and PM",
    );
    let pop = Population::mturk_live();
    let specs = binary_specs(opts.n(300), 5);
    let (grid, names) = sm_pm_grid(&pop, specs, &opts.seeds);
    let grouped = grid.run_grouped(opts.threads).expect("SM/PM cell labels are unique");
    println!("  config       total-lat   batch-std    cost      vs-baseline");
    let mut baseline = None;
    for (name, reports) in names.iter().zip(&grouped) {
        let lat = mean_of(reports, |r| r.total_secs());
        let std = mean_of(reports, |r| r.mean_batch_std());
        let cost = mean_of(reports, |r| r.cost.total_usd());
        if baseline.is_none() {
            baseline = Some((lat, std));
        }
        let (bl, bs) = baseline.unwrap();
        println!(
            "  {name:<12} {lat:>8.1}s  {std:>8.2}s  ${cost:>7.2}   lat {} / std {}",
            ratio(bl, lat),
            ratio(bs, std)
        );
    }
}

/// Figure 13: per-assignment Gantt statistics (we summarize instead of
/// plotting: straggler counts, termination counts, assignment spans).
pub fn fig13(opts: &Opts) {
    header(
        "Figure 13",
        "Per-assignment view per SM x PM configuration",
        "maintenance leaves fewer/smaller stragglers; SM terminates them; combined \
         has the fewest stragglers to mitigate",
    );
    let pop = Population::mturk_live();
    let specs = binary_specs(opts.n(150), 5);
    let (grid, names) = sm_pm_grid(&pop, specs, &[opts.seeds[0]]);
    let grouped = grid.run_grouped(opts.threads).expect("SM/PM cell labels are unique");
    println!("  config       assignments  terminated  stragglers(>2x median)  max-span");
    for (name, reports) in names.iter().zip(&grouped) {
        let r = &reports[0];
        let spans: Vec<f64> =
            r.assignments.iter().map(|a| a.end.since(a.start).as_secs_f64()).collect();
        let median = clamshell_sim::stats::percentile(&spans, 0.5);
        let stragglers = spans.iter().filter(|&&s| s > 2.0 * median).count();
        let max = spans.iter().copied().fold(0.0, f64::max);
        let terminated = r.assignments.iter().filter(|a| a.terminated).count();
        println!(
            "  {name:<12} {:>11}  {terminated:>10}  {stragglers:>22}  {max:>7.1}s",
            r.assignments.len(),
        );
    }
}

/// Figure 14: TermEst keeps the replacement rate alive under straggler
/// mitigation.
pub fn fig14(opts: &Opts) {
    header(
        "Figure 14",
        "Replacement rate with/without TermEst (alpha = 1)",
        "without TermEst, SM masks slow workers and replacement collapses; with it, \
         replacement happens as frequently as with no straggler mitigation",
    );
    let pop = Population::mturk_live();
    let specs = binary_specs(opts.n(300), 5);
    let cells = [
        (true, true, "SM + TermEst"),
        (true, false, "SM + NoTermEst"),
        (false, true, "NoSM (reference)"),
    ];
    let mut grid = Grid::new(RunConfig::default(), pop, specs, 15).seeds(&opts.seeds);
    for (sm, termest, name) in cells {
        grid = grid.scenario(name, move |c| {
            *c = RunConfig {
                pool_size: 15,
                ng: 5,
                straggler: sm.then(StragglerConfig::default),
                maintenance: Some(MaintenanceConfig {
                    use_termest: termest,
                    ..MaintenanceConfig::pm8()
                }),
                ..Default::default()
            };
        });
    }
    println!("  config               replaced-per-batch");
    let mut rates = Vec::new();
    let grouped = grid.run_grouped(opts.threads).expect("TermEst cell labels are unique");
    for ((_, _, name), reports) in cells.iter().zip(grouped) {
        let rate = mean_of(&reports, |r| r.workers_evicted as f64 / r.batches.len().max(1) as f64);
        println!("  {name:<20} {rate:>17.2}");
        rates.push(rate);
    }
    println!(
        "  TermEst restores {} of the NoSM replacement rate (NoTermEst: {})",
        ratio(rates[0], rates[2]),
        ratio(rates[1], rates[2]),
    );
}

/// §6.6 headline: raw acquisition of 500 labels.
pub fn headline(opts: &Opts) {
    header(
        "Headline (§6.6)",
        "Raw time to acquire 500 labels: CLAMShell vs Base-NR",
        "7.24x labeling throughput; 151x variance reduction (3.1s vs 475s std)",
    );
    let n = opts.n(500);
    // Not a `run_batched` sweep, so the generic pool layer fans the
    // per-seed baseline comparisons directly.
    let runs = pool::map(opts.seeds.clone(), opts.thread_count(), |_, _, seed| {
        headline_raw_labeling(Population::mturk_live(), n, 15, seed)
    });
    let mut thr = Vec::new();
    let mut stds = Vec::new();
    for (clam, nr) in &runs {
        thr.push((clam.throughput(), nr.throughput()));
        stds.push((clam.mean_batch_std(), nr.batches[0].task_latency_std));
    }
    let m = |xs: &[(f64, f64)], i: usize| {
        xs.iter().map(|p| if i == 0 { p.0 } else { p.1 }).sum::<f64>() / xs.len() as f64
    };
    let (tc, tn) = (m(&thr, 0), m(&thr, 1));
    let (sc, sn) = (m(&stds, 0), m(&stds, 1));
    println!(
        "  throughput: CLAMShell={tc:.2} labels/s  Base-NR={tn:.2} labels/s  speedup={} (paper {:.2}x)",
        ratio(tc, tn),
        paper::THROUGHPUT_SPEEDUP
    );
    println!(
        "  batch std:  CLAMShell={sc:.1}s  Base-NR={sn:.1}s  reduction={} (paper {:.0}x: {:.1}s vs {:.0}s)",
        ratio(sn, sc),
        paper::VARIANCE_REDUCTION,
        paper::CLAMSHELL_STD_SECS,
        paper::BASE_NR_STD_SECS
    );
}
