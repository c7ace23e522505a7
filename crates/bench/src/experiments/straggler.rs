//! §6.3 — straggler-mitigation experiments (Figures 9–11), the routing
//! policy comparison (§4.1), and the SM × quality-control decoupling.

use crate::util::{binary_specs, header, mean_of, ratio, run_scenarios, run_seeds_opts, Opts};
use clamshell_core::config::{QcMode, StragglerConfig};
use clamshell_core::lifeguard::RoutingPolicy;
use clamshell_core::metrics::RunReport;
use clamshell_core::RunConfig;
use clamshell_sweep::Grid;
use clamshell_trace::Population;

/// CIFAR-like setting of §6.3: Ng = 5, Np = 15.
fn cifar_cfg(straggler: Option<StragglerConfig>) -> RunConfig {
    RunConfig { pool_size: 15, ng: 5, straggler, ..Default::default() }
}

/// The paper's pool-to-batch ratios.
const RATIOS: [f64; 5] = [0.5, 0.75, 1.0, 2.0, 3.0];

/// The SM/NoSM × R grid of Figures 9–10. Each R reshapes the workload
/// (batch size and task count), so scenarios carry spec overrides.
/// Returns reports grouped as `[(sm_reports, nosm_reports); RATIOS]`
/// alongside each ratio's batch size, in `RATIOS` order.
fn sm_ratio_sweep(
    opts: &Opts,
    n_tasks_for: impl Fn(usize) -> usize,
) -> Vec<(f64, usize, Vec<RunReport>, Vec<RunReport>)> {
    let base = cifar_cfg(None);
    let mut grid = Grid::new(base.clone(), Population::mturk_live(), binary_specs(1, 5), 15)
        .seeds(&opts.seeds);
    let mut batches = Vec::new();
    for r in RATIOS {
        let batch = base.batch_size_for_ratio(r);
        let specs = binary_specs(n_tasks_for(batch), 5);
        batches.push(batch);
        grid = grid.scenario_with(
            format!("R{r}/SM"),
            |c| c.straggler = Some(StragglerConfig::default()),
            specs.clone(),
            batch,
        );
        grid = grid.scenario_with(format!("R{r}/NoSM"), |c| c.straggler = None, specs, batch);
    }
    let mut grouped =
        grid.run_grouped(opts.threads).expect("redundancy labels are unique").into_iter();
    RATIOS
        .iter()
        .zip(batches)
        .map(|(&r, batch)| {
            let sm = grouped.next().expect("SM row");
            let no = grouped.next().expect("NoSM row");
            (r, batch, sm, no)
        })
        .collect()
}

/// Figure 9: per-batch latency standard deviation, SM vs NoSM, across R.
pub fn fig9(opts: &Opts) {
    header(
        "Figure 9",
        "Std of per-task latency across batches, SM vs NoSM",
        "straggler mitigation decreases per-batch latency std by 5-10x",
    );
    println!("  R       batch   std-SM    std-NoSM   reduction");
    for (r, batch, sm, no) in
        sm_ratio_sweep(opts, |batch| (opts.n(150) / batch * batch.max(1)).max(batch))
    {
        let (s_sm, s_no) =
            (mean_of(&sm, |x| x.mean_batch_std()), mean_of(&no, |x| x.mean_batch_std()));
        println!("  {r:<7} {batch:<7} {s_sm:>7.2}s  {s_no:>8.2}s  {:>9}", ratio(s_no, s_sm));
    }
}

/// Figure 10: labeling progress with straggler mitigation.
pub fn fig10(opts: &Opts) {
    header(
        "Figure 10",
        "Points labeled over time with straggler mitigation",
        "batches finish without waiting for stragglers: up to 5x latency reduction; \
         R in [0.75, 1] is the sweet spot",
    );
    println!("  R       total-SM    total-NoSM   speedup   throughput-SM (labels/s)");
    for (r, _batch, sm, no) in
        sm_ratio_sweep(opts, |batch| (opts.n(150) / batch.max(1)).max(1) * batch)
    {
        let (t_sm, t_no) = (mean_of(&sm, |x| x.total_secs()), mean_of(&no, |x| x.total_secs()));
        println!(
            "  {r:<7} {t_sm:>8.1}s  {t_no:>10.1}s  {:>8}  {:>10.2}",
            ratio(t_no, t_sm),
            mean_of(&sm, |x| x.throughput()),
        );
    }
}

/// Figure 11: the cost / latency / variance summary of straggler
/// mitigation.
pub fn fig11(opts: &Opts) {
    header(
        "Figure 11",
        "Straggler mitigation summary",
        "increases costs 1-2x, improves latency 2.5-5x, improves variance 4-14x",
    );
    let pop = Population::mturk_live();
    let base = cifar_cfg(None);
    let batch = 15; // R = 1
    let n_tasks = opts.n(150);
    let specs = binary_specs(n_tasks, 5);
    let sm =
        run_seeds_opts(opts, &cifar_cfg(Some(StragglerConfig::default())), &pop, &specs, batch);
    let no = run_seeds_opts(opts, &base, &pop, &specs, batch);
    println!(
        "  cost:     SM=${:.2}  NoSM=${:.2}  ratio={}  (paper: 1-2x increase)",
        mean_of(&sm, |x| x.cost.total_usd()),
        mean_of(&no, |x| x.cost.total_usd()),
        ratio(mean_of(&sm, |x| x.cost.total_usd()), mean_of(&no, |x| x.cost.total_usd())),
    );
    println!(
        "  latency:  SM={:.1}s  NoSM={:.1}s  improvement={}  (paper: 2.5-5x)",
        mean_of(&sm, |x| x.total_secs()),
        mean_of(&no, |x| x.total_secs()),
        ratio(mean_of(&no, |x| x.total_secs()), mean_of(&sm, |x| x.total_secs())),
    );
    println!(
        "  variance: SM-std={:.2}s  NoSM-std={:.2}s  improvement={}  (paper: 4-14x)",
        mean_of(&sm, |x| x.mean_batch_std()),
        mean_of(&no, |x| x.mean_batch_std()),
        ratio(mean_of(&no, |x| x.mean_batch_std()), mean_of(&sm, |x| x.mean_batch_std())),
    );
    println!(
        "  termination rate under SM: {:.1}% of assignments",
        mean_of(&sm, |x| x.termination_rate()) * 100.0
    );
}

/// §4.1 routing-policy simulation: "the selection algorithm didn't affect
/// end-to-end latency, and random performed as fast as the oracle".
pub fn routing(opts: &Opts) {
    header(
        "Routing",
        "Straggler routing policies",
        "random ~= longest-running ~= fewest-workers ~= oracle",
    );
    let pop = Population::mturk_live();
    // R = 1.5: mitigation has headroom, the regime of the paper's claim
    // ("fast workers complete almost all of the tasks in the batch
    // anyways"). At R <= 1 the oracle gains a real edge because idle
    // workers are scarce.
    let batch = 10;
    let specs = binary_specs(opts.n(150), 5);
    let policies = [
        (RoutingPolicy::Random, "Random"),
        (RoutingPolicy::LongestRunning, "LongestRunning"),
        (RoutingPolicy::FewestWorkers, "FewestWorkers"),
        (RoutingPolicy::Oracle, "Oracle"),
    ];
    let grouped = run_scenarios(
        opts,
        &cifar_cfg(None),
        &pop,
        &specs,
        batch,
        policies
            .iter()
            .map(|&(policy, name)| {
                let mutate: Box<dyn Fn(&mut RunConfig) + Send + Sync> = Box::new(move |c| {
                    c.straggler = Some(StragglerConfig { routing: policy, ..Default::default() })
                });
                (name.to_string(), mutate)
            })
            .collect(),
    );
    println!("  policy           mean-batch-latency   total");
    let mut results = Vec::new();
    for ((_, name), reports) in policies.iter().zip(&grouped) {
        let mean_batch = mean_of(reports, |r| r.batch_makespan_summary().mean);
        let total = mean_of(reports, |r| r.total_secs());
        println!("  {name:<16} {mean_batch:>16.2}s   {total:>7.1}s");
        results.push((name, total));
    }
    let best = results.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
    let worst = results.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    println!("  spread worst/best = {} (paper: no significant difference)", ratio(worst, best));
}

/// §4.1 "Working with Quality Control": decoupled SM + voting vs naive
/// duplication of every vote.
pub fn qcsm(opts: &Opts) {
    header(
        "QC + SM",
        "Straggler mitigation with 3-vote quality control",
        "naive duplication creates ~2v assignments; decoupling needs ~v+1 and saves \
         up to 30% per-batch latency in straggler-heavy pools",
    );
    let pop = Population::mturk_live();
    let batch = 5; // quorum 3 on 15 workers -> R = 1 in assignment terms
    let specs = binary_specs(opts.n(60), 5);
    let scenario = |mode: Option<QcMode>| -> Box<dyn Fn(&mut RunConfig) + Send + Sync> {
        Box::new(move |c| {
            c.quorum = 3;
            c.straggler = mode.map(|m| StragglerConfig { qc_mode: m, ..Default::default() });
        })
    };
    let grouped = run_scenarios(
        opts,
        &cifar_cfg(None),
        &pop,
        &specs,
        batch,
        vec![
            ("decoupled".to_string(), scenario(Some(QcMode::Decoupled))),
            ("naive".to_string(), scenario(Some(QcMode::Naive))),
            ("no-SM".to_string(), scenario(None)),
        ],
    );
    println!("  mode        assignments/task   batch-latency   cost");
    for (name, reports) in ["decoupled", "naive"].iter().zip(&grouped) {
        let per_task = mean_of(reports, |r| r.assignments.len() as f64 / r.tasks.len() as f64);
        println!(
            "  {name:<11} {per_task:>16.2}   {:>12.2}s   ${:.2}",
            mean_of(reports, |r| r.batch_makespan_summary().mean),
            mean_of(reports, |r| r.cost.total_usd()),
        );
    }
    // No-SM quorum baseline for reference.
    let reports = &grouped[2];
    println!(
        "  no-SM       {:>16.2}   {:>12.2}s   ${:.2}",
        mean_of(reports, |r| r.assignments.len() as f64 / r.tasks.len() as f64),
        mean_of(reports, |r| r.batch_makespan_summary().mean),
        mean_of(reports, |r| r.cost.total_usd()),
    );
}
