//! §6.2 — pool maintenance experiments (Figures 3–8) and the §4.2
//! convergence model check.

use crate::util::{
    binary_specs, digit_specs, f2, header, mean_of, ratio, run_scenarios, run_seeds_opts, Opts,
};
use clamshell_core::config::MaintenanceConfig;
use clamshell_core::metrics::RunReport;
use clamshell_core::poolmodel::PoolModel;
use clamshell_core::runner::Runner;
use clamshell_core::RunConfig;
use clamshell_sim::stats::{percentile, Summary};
use clamshell_sweep::Grid;
use clamshell_trace::Population;

fn digit_cfg(ng: u32, maint: Option<MaintenanceConfig>) -> RunConfig {
    RunConfig { pool_size: 15, ng, n_classes: 10, maintenance: maint, ..Default::default() }
}

/// The three task complexities of Table 3.
const COMPLEXITIES: [(u32, &str); 3] = [(1, "Simple"), (5, "Medium"), (10, "Complex")];

/// The complexity × {PM8, PM∞} grid of Figures 3–4: each Ng reshapes
/// the task specs, so scenarios carry spec overrides. Returns
/// `[(complexity name, pm8_reports, pminf_reports); 3]` in Table-3
/// order.
fn complexity_sweep(
    opts: &Opts,
    n_tasks: usize,
) -> Vec<(&'static str, Vec<RunReport>, Vec<RunReport>)> {
    let mut grid = Grid::new(digit_cfg(5, None), Population::mturk_live(), binary_specs(1, 5), 15)
        .seeds(&opts.seeds);
    for (ng, name) in COMPLEXITIES {
        let specs = digit_specs(n_tasks, ng as usize);
        grid = grid.scenario_with(
            format!("{name}/PM8"),
            move |c| *c = digit_cfg(ng, Some(MaintenanceConfig::pm8())),
            specs.clone(),
            15,
        );
        grid = grid.scenario_with(
            format!("{name}/PMinf"),
            move |c| *c = digit_cfg(ng, None),
            specs,
            15,
        );
    }
    let mut grouped =
        grid.run_grouped(opts.threads).expect("complexity labels are unique").into_iter();
    COMPLEXITIES
        .iter()
        .map(|&(_, name)| {
            let pm = grouped.next().expect("PM8 row");
            let inf = grouped.next().expect("PMinf row");
            (name, pm, inf)
        })
        .collect()
}

/// Figure 3: points labeled over time for PM8 vs PM∞ across task
/// complexity.
pub fn fig3(opts: &Opts) {
    header(
        "Figure 3",
        "# points labeled over time (PM8 vs PM-inf)",
        "simple tasks uniformly fast (little PM benefit); medium/complex suffer \
         stragglers that maintenance culls",
    );
    let n_tasks = opts.n(500);
    println!("  Ng       config   25%-done   50%-done   75%-done   100%-done  (secs)");
    for (name, pm, inf) in complexity_sweep(opts, n_tasks) {
        for (reports, label) in [(pm, "PM8"), (inf, "PMinf")] {
            let quartile = |r: &RunReport, f: f64| {
                let series = r.labels_over_time();
                let target = (r.labels_produced() as f64 * f) as u64;
                series.iter().find(|(_, c)| *c >= target).map(|(t, _)| *t).unwrap_or(0.0)
            };
            println!(
                "  {name:<8} {label:<8} {:>8.1}   {:>8.1}   {:>8.1}   {:>9.1}",
                mean_of(&reports, |r| quartile(r, 0.25)),
                mean_of(&reports, |r| quartile(r, 0.50)),
                mean_of(&reports, |r| quartile(r, 0.75)),
                mean_of(&reports, |r| r.total_secs()),
            );
        }
    }
}

/// Figure 4: end-to-end latency & cost with and without maintenance.
pub fn fig4(opts: &Opts) {
    header(
        "Figure 4",
        "End-to-end latency & cost, PM8 vs PM-inf",
        "speedup ~1.0x simple / ~1.3x medium / ~1.8x complex; cost REDUCED 7-16% \
         for medium/complex despite recruitment",
    );
    let n_tasks = opts.n(500);
    println!("  Ng       latency-PM8  latency-inf  speedup   cost-PM8   cost-inf   cost-delta");
    for (name, pm, no) in complexity_sweep(opts, n_tasks) {
        let (lat_pm, lat_no) = (mean_of(&pm, |r| r.total_secs()), mean_of(&no, |r| r.total_secs()));
        let (cost_pm, cost_no) =
            (mean_of(&pm, |r| r.cost.total_usd()), mean_of(&no, |r| r.cost.total_usd()));
        println!(
            "  {name:<8} {lat_pm:>10.1}s {lat_no:>11.1}s {:>8}  ${cost_pm:>8.2}  ${cost_no:>8.2}  {:>+9.1}%",
            ratio(lat_no, lat_pm),
            (cost_pm - cost_no) / cost_no * 100.0,
        );
    }
}

/// Figure 5: per-label latency vs worker age, with and without
/// maintenance.
pub fn fig5(opts: &Opts) {
    header(
        "Figure 5",
        "Task latency vs worker age",
        "with PM8, slow (>=8s/label) tasks disappear once workers age past the \
         probation window; without maintenance they persist forever",
    );
    let n_tasks = opts.n(500);
    let pop = Population::mturk_live();
    let bins = [(0u32, 3u32), (3, 8), (8, 20), (20, u32::MAX)];
    println!("  config   age-bin      tasks   %slow(>=8s/label)   p95 s/label");
    for (mcfg, label) in [(Some(MaintenanceConfig::pm8()), "PM8"), (None, "PMinf")] {
        let reports = run_seeds_opts(opts, &digit_cfg(5, mcfg), &pop, &digit_specs(n_tasks, 5), 15);
        for (lo, hi) in bins {
            let mut lat: Vec<f64> = Vec::new();
            for r in &reports {
                for t in &r.tasks {
                    if t.winner_age >= lo && t.winner_age < hi {
                        lat.push(t.latency_per_label_secs());
                    }
                }
            }
            if lat.is_empty() {
                continue;
            }
            let slow = lat.iter().filter(|&&x| x >= 8.0).count() as f64 / lat.len() as f64;
            let hi_str = if hi == u32::MAX { "+".into() } else { format!("-{hi}") };
            println!(
                "  {label:<8} {:<12} {:>5}   {:>16.1}%   {:>10.2}",
                format!("{lo}{hi_str}"),
                lat.len(),
                slow * 100.0,
                percentile(&lat, 0.95),
            );
        }
    }
}

/// Figure 6: mean pool latency per batch.
pub fn fig6(opts: &Opts) {
    header(
        "Figure 6",
        "Mean pool latency (MPL) over batches",
        "similar average but maintenance removes the long tail: MPL variance across \
         batches drops",
    );
    let n_tasks = opts.n(500);
    let pop = Population::mturk_live();
    for (mcfg, label) in [(Some(MaintenanceConfig::pm8()), "PM8"), (None, "PMinf")] {
        let reports = run_seeds_opts(opts, &digit_cfg(5, mcfg), &pop, &digit_specs(n_tasks, 5), 15);
        let mut all_mpl: Vec<f64> = Vec::new();
        for r in &reports {
            all_mpl.extend(r.batches.iter().map(|b| b.mpl));
        }
        let s = Summary::of(&all_mpl);
        let early: Vec<f64> =
            reports.iter().flat_map(|r| r.batches.iter().take(3).map(|b| b.mpl)).collect();
        let late: Vec<f64> = reports
            .iter()
            .flat_map(|r| {
                let n = r.batches.len();
                r.batches.iter().skip(n.saturating_sub(3)).map(|b| b.mpl)
            })
            .collect();
        println!(
            "  {label:<8} MPL mean={:.2}s std={:.2}s max={:.2}s | first-3-batches={:.2}s last-3={:.2}s",
            s.mean,
            s.std,
            s.max,
            Summary::of(&early).mean,
            Summary::of(&late).mean,
        );
    }
}

/// The PMℓ axis of Figures 7–8.
const THRESHOLDS: [f64; 5] = [32.0, 16.0, 8.0, 4.0, 2.0];

/// One sweep over the PMℓ axis × seeds, reserve-boosted as Figures 7–8
/// require. Returns reports grouped per threshold, in `THRESHOLDS`
/// order.
fn threshold_sweep(opts: &Opts, n_tasks: usize) -> Vec<Vec<RunReport>> {
    run_scenarios(
        opts,
        &digit_cfg(5, None),
        &Population::mturk_live(),
        &digit_specs(n_tasks, 5),
        15,
        THRESHOLDS
            .iter()
            .map(|&threshold| {
                let mutate: Box<dyn Fn(&mut RunConfig) + Send + Sync> = Box::new(move |c| {
                    c.maintenance = Some(MaintenanceConfig {
                        reserve_target: 5,
                        ..MaintenanceConfig::with_threshold(threshold)
                    })
                });
                (format!("PM{threshold}"), mutate)
            })
            .collect(),
    )
}

/// Figure 7: workers replaced over time vs threshold.
pub fn fig7(opts: &Opts) {
    header(
        "Figure 7",
        "Workers replaced vs maintenance threshold",
        "decreasing the threshold causes more workers to be replaced during a run",
    );
    let n_tasks = opts.n(400);
    println!("  PMl     replaced(total)  replaced/batch");
    let mut last = 0.0f64;
    let grouped = threshold_sweep(opts, n_tasks);
    for (threshold, reports) in THRESHOLDS.iter().zip(&grouped) {
        let evicted = mean_of(reports, |r| r.workers_evicted as f64);
        let per_batch =
            mean_of(reports, |r| r.workers_evicted as f64 / r.batches.len().max(1) as f64);
        println!("  PM{threshold:<5} {evicted:>12.1}  {per_batch:>13.2}");
        // Qualitative check: replacement grows as the threshold falls.
        if evicted + 0.5 < last {
            println!("    (note: replacement dropped vs previous threshold)");
        }
        last = evicted;
    }
}

/// Figure 8: latency percentiles vs threshold by worker-age slice.
pub fn fig8(opts: &Opts) {
    header(
        "Figure 8",
        "p50/p95/p99 per-label latency vs PM threshold, by worker age",
        "optimal threshold ~PM8 cuts straggler latencies ~2x; PM4/PM2 are below \
         what even fast workers can do and thrash",
    );
    let n_tasks = opts.n(400);
    println!("  PMl     age-slice   p50     p95     p99   (s/label)");
    for (threshold, reports) in THRESHOLDS.iter().zip(threshold_sweep(opts, n_tasks)) {
        for (lo, hi, label) in [(0u32, 5u32, "<5"), (5, 15, "5-15"), (15, u32::MAX, "15+")] {
            let lat: Vec<f64> = reports
                .iter()
                .flat_map(|r| r.tasks.iter())
                .filter(|t| t.winner_age >= lo && t.winner_age < hi)
                .map(|t| t.latency_per_label_secs())
                .collect();
            if lat.is_empty() {
                continue;
            }
            println!(
                "  PM{threshold:<5} {label:<9} {:>6.2}  {:>6.2}  {:>6.2}",
                percentile(&lat, 0.5),
                percentile(&lat, 0.95),
                percentile(&lat, 0.99),
            );
        }
    }
}

/// §4.2 convergence model: simulated MPL trajectory vs the closed form
/// `E[μ_n] = (1 − q^{n+1}) μ_f + q^{n+1} μ_s`.
pub fn poolmodel(opts: &Opts) {
    header(
        "Pool model",
        "Maintained-pool convergence vs closed form",
        "with maintenance the pool MPL converges to mu_f, following \
         E[mu_n] = (1 - q^(n+1)) mu_f + q^(n+1) mu_s",
    );
    // A bimodal population makes (q, mu_f, mu_s) exact. The closed form
    // assumes replacements are instantaneous, so recruitment is made fast
    // for this check (otherwise eviction is reserve-throttled).
    let (frac_fast, fast, slow) = (0.6, 3.0, 12.0);
    let mut pop = Population::bimodal(frac_fast, fast, slow);
    pop.recruitment = clamshell_sim::dist::LogNormal::from_median_quantile(5.0, 0.9, 12.0);
    pop.recruitment_floor = 1.0;
    let threshold = 7.5;
    let q = 1.0 - pop.frac_below(threshold);
    let mut rng = clamshell_sim::rng::Rng::new(7);
    let (mu_f, mu_s) = pop.conditional_means(threshold, 20_000, &mut rng);
    let model = PoolModel::new(q, mu_f, mu_s);

    let n_batches = opts.n(25);
    let mcfg = MaintenanceConfig {
        threshold_per_label_secs: threshold,
        min_tasks: 1,
        alpha: 0.2,
        reserve_target: 8,
        ..MaintenanceConfig::pm8()
    };
    let cfg = RunConfig {
        pool_size: 15,
        ng: 1,
        maintenance: Some(mcfg),
        churn: false,
        seed: opts.seeds[0],
        ..Default::default()
    };
    let mut runner = Runner::new(cfg, pop);
    runner.warm_up();
    println!("  batch   simulated-MPL   model-E[mu_n]");
    let mut sim_final = 0.0;
    for n in 0..n_batches {
        runner.run_batch(binary_specs(15, 1));
        sim_final = runner.pool_true_mpl();
        if n < 5 || n % 5 == 4 {
            println!("  {n:>5}   {:>12.2}s   {:>12.2}s", sim_final, model.expected_mpl(n as u32));
        }
    }
    println!(
        "  initial E[mu_0]={:.2}s, asymptote mu_f={:.2}s, simulated final={:.2}s",
        model.expected_mpl(0),
        model.limit(),
        sim_final
    );
    println!(
        "  convergence gap |sim - mu_f| = {} of initial gap",
        f2((sim_final - model.limit()).abs() / (model.expected_mpl(0) - model.limit()).abs()),
    );
}
