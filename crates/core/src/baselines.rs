//! The end-to-end baselines of §6.6 and the open-market crowd model.
//!
//! * **Base-NR** — "a typical crowd labeling deployment": no retainer
//!   pool, all tasks posted to the open market at once, passive learning
//!   over whatever comes back. Each worker must be recruited from the
//!   market (minutes, not seconds) before they produce anything.
//! * **Base-R** — "the latest techniques for low-latency crowdsourcing":
//!   a retainer pool and classic active learning, but no straggler
//!   mitigation, no pool maintenance, and blocking retrains.
//! * **CLAMShell** — everything on: straggler mitigation, PM8 pool
//!   maintenance with TermEst, hybrid learning, pipelined retraining.

use crate::config::RunConfig;
use crate::learning::{LearningConfig, LearningOutcome, LearningRunner, Strategy};
use crate::metrics::{AssignmentRecord, BatchStats, RunReport, TaskRecord};
use crate::task::TaskSpec;
use clamshell_crowd::{SimPlatform, Worker, WorkerId};
use clamshell_learn::eval::{accuracy, LearningCurve};
use clamshell_learn::model::{new_classifier, Example, SgdConfig};
use clamshell_learn::Dataset;
use clamshell_sim::stats::OnlineStats;
use clamshell_sim::time::SimTime;
use clamshell_trace::Population;
use std::collections::BinaryHeap;

/// How the open market behaves when tasks are posted without a retainer
/// pool (the Base-NR crowd model).
///
/// On a real platform, posting a pile of HITs does not summon a dedicated
/// workforce: workers *discover* the posting over time (an arrival
/// process whose rate reflects market conditions), complete a short
/// session of tasks, and move on. Both effects — slow trickle-in and
/// short sessions — are what make Base-NR slow and enormously variable
/// in the paper (§6.6: 475 s batch std vs CLAMShell's 3.1 s).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OpenMarketConfig {
    /// Mean worker arrivals per minute once the posting is live.
    pub arrival_rate_per_min: f64,
    /// Mean tasks a worker completes before leaving (geometric).
    pub session_tasks_mean: f64,
}

impl Default for OpenMarketConfig {
    fn default() -> Self {
        OpenMarketConfig { arrival_rate_per_min: 1.5, session_tasks_mean: 10.0 }
    }
}

/// Open-market labeling (the crowd model under Base-NR): `specs` are
/// posted all at once at t = 0; workers discover the posting per
/// [`OpenMarketConfig`], each needing a recruitment delay before their
/// first task and leaving after a short session. No retainer, no wait
/// pay, no mitigation.
pub fn run_open_market(
    population: Population,
    platform_cfg: clamshell_crowd::PlatformConfig,
    specs: Vec<TaskSpec>,
    market: OpenMarketConfig,
    seed: u64,
) -> RunReport {
    assert!(market.arrival_rate_per_min > 0.0, "need a positive arrival rate");
    assert!(market.session_tasks_mean >= 1.0, "sessions must average >= 1 task");
    let mut platform = SimPlatform::new(population, platform_cfg, seed);
    let mut rng = clamshell_sim::rng::Rng::new(seed ^ 0x0EE7_FEE7_0000_0001);
    let interarrival =
        clamshell_sim::dist::Exponential::from_mean(60.0 / market.arrival_rate_per_min);

    // (available-at, worker, tasks-left-in-session); min-heap by time.
    let mut heap: BinaryHeap<(std::cmp::Reverse<SimTime>, WorkerId, u32)> = BinaryHeap::new();
    let mut next_arrival = SimTime::ZERO;

    let mut tasks: Vec<TaskRecord> = Vec::new();
    let mut assignments: Vec<AssignmentRecord> = Vec::new();
    let mut next_task = 0usize;
    let mut lat = OnlineStats::new();
    // Every worker admitted so far, indexed by `WorkerId` (the platform
    // numbers arrivals densely): their record and their age, the number
    // of tasks they have completed.
    let mut workers: Vec<(Worker, u32)> = Vec::new();
    let mut finished = SimTime::ZERO;

    // Geometric session length with the configured mean (>= 1 task).
    let p_leave = 1.0 / market.session_tasks_mean;
    let sample_session = |rng: &mut clamshell_sim::rng::Rng| -> u32 {
        let mut n = 1u32;
        while !rng.bernoulli(p_leave) && n < 10_000 {
            n += 1;
        }
        n
    };

    while next_task < specs.len() {
        // If no worker is ready before the next arrival, admit a new one.
        let need_arrival = match heap.peek() {
            None => true,
            Some(&(std::cmp::Reverse(t), _, _)) => next_arrival < t,
        };
        if need_arrival {
            use clamshell_sim::dist::Sample;
            next_arrival +=
                clamshell_sim::time::SimDuration::from_secs_f64(interarrival.sample(&mut rng));
            let recruit_delay = platform.start_recruitment();
            let worker = platform.worker_arrives();
            let w = worker.id;
            debug_assert_eq!(w.0 as usize, workers.len(), "worker ids are dense");
            workers.push((worker, 0));
            let session = sample_session(&mut rng);
            heap.push((std::cmp::Reverse(next_arrival + recruit_delay), w, session));
            continue;
        }
        let Some((std::cmp::Reverse(at), w, session_left)) = heap.pop() else {
            unreachable!("guarded by need_arrival");
        };
        let spec = &specs[next_task];
        let ng = spec.ng();
        let (worker, age) = &mut workers[w.0 as usize];
        let dur = platform.sample_task_duration(worker, ng);
        let end = at + dur;
        platform.pay_records(ng as u64);
        // Open-market quorum is 1: the single answer is final. Classes
        // are inferred from the spec (open-market runs carry no
        // RunConfig).
        let n_classes = spec.truths.iter().copied().max().unwrap_or(0).max(1) + 1;
        let mut labels = Vec::with_capacity(spec.truths.len());
        worker.sample_labels_into(&spec.truths, n_classes, &mut labels);
        let correct = labels.iter().zip(&spec.truths).filter(|(a, b)| a == b).count() as u32;
        tasks.push(TaskRecord {
            task: next_task as u32,
            batch: 0,
            ng,
            created: SimTime::ZERO,
            completed: end,
            winner: w,
            winner_span: dur,
            winner_age: *age,
            correct,
        });
        assignments.push(AssignmentRecord {
            task: next_task as u32,
            batch: 0,
            worker: w,
            start: at,
            end,
            terminated: false,
        });
        lat.push(end.as_secs_f64());
        *age += 1;
        finished = finished.max(end);
        next_task += 1;
        if session_left > 1 {
            heap.push((std::cmp::Reverse(end), w, session_left - 1));
        }
    }

    let batch = BatchStats {
        index: 0,
        start: SimTime::ZERO,
        end: finished,
        tasks: tasks.len(),
        task_latency_std: lat.std(),
        task_latency_mean: lat.mean(),
        mpl: lat.mean(),
        evicted: 0,
    };
    RunReport {
        tasks,
        assignments,
        batches: vec![batch],
        cost: *platform.ledger(),
        workers_recruited: platform.workers_recruited(),
        workers_evicted: 0,
        workers_departed: 0,
        reserve_expired: 0,
        stale_retired: 0,
        started: SimTime::ZERO,
        finished,
        obs: None,
    }
}

/// Shared shape of the three end-to-end systems (Figures 17, 18).
#[derive(Debug)]
pub struct EndToEnd {
    /// System name ("Base-NR", "Base-R", "CLAMShell").
    pub name: &'static str,
    /// Learning curve over simulated time.
    pub curve: LearningCurve,
    /// Crowd run report.
    pub report: RunReport,
}

/// Base-NR: open-market labeling of `budget` random points + passive
/// model retrained every `pool_size` labels.
pub fn run_base_nr(
    dataset: &Dataset,
    population: Population,
    budget: usize,
    pool_size: usize,
    market: OpenMarketConfig,
    sgd: SgdConfig,
    seed: u64,
) -> EndToEnd {
    let (train_rows, test_rows) = dataset.split(0.3, seed);
    let test_labels: Vec<u32> = test_rows.iter().map(|&r| dataset.labels[r]).collect();
    let mut rng = clamshell_sim::rng::Rng::new(seed ^ 0xBA5E);
    let mut rows = train_rows.clone();
    rng.shuffle(&mut rows);
    rows.truncate(budget);

    let specs: Vec<TaskSpec> =
        rows.iter().map(|&row| TaskSpec::for_rows(vec![row], vec![dataset.labels[row]])).collect();
    let report = run_open_market(
        population,
        clamshell_crowd::PlatformConfig::default(),
        specs,
        market,
        seed,
    );

    // Passive retrains every `pool_size` completions, in completion order.
    let mut order: Vec<&TaskRecord> = report.tasks.iter().collect();
    order.sort_by_key(|t| t.completed);
    let mut labeled: Vec<Example> = Vec::new();
    let mut curve = LearningCurve::new();
    // Noisy crowd label: single answer, no quorum — sample through the
    // winner's accuracy is already folded into the platform; here the
    // open-market report does not carry labels, so re-sample via truth
    // with the dataset (open market uses one answer/task; the error model
    // is applied when labels are consumed below).
    let mut platform_rng = clamshell_sim::rng::Rng::new(seed ^ 0xC0FFEE);
    for (i, t) in order.iter().enumerate() {
        let row = rows[t.task as usize];
        // Single-worker answer with a typical market accuracy.
        let truth = dataset.labels[row];
        let label = if platform_rng.bernoulli(0.88) {
            truth
        } else {
            let wrong = platform_rng.next_below(dataset.n_classes as u64 - 1) as u32;
            if wrong >= truth {
                wrong + 1
            } else {
                wrong
            }
        };
        labeled.push(Example::new(row, label));
        if (i + 1) % pool_size == 0 || i + 1 == order.len() {
            let mut model = new_classifier(dataset.n_classes, sgd);
            model.fit(&dataset.features, &labeled);
            let acc = accuracy(model.as_ref(), &dataset.features, &test_rows, &test_labels);
            curve.push(t.completed.as_secs_f64(), labeled.len(), acc);
        }
    }

    EndToEnd { name: "Base-NR", curve, report }
}

/// Base-R: retainer pool + classic blocking active learning. No straggler
/// mitigation, no maintenance.
pub fn run_base_r(
    dataset: &Dataset,
    population: Population,
    budget: usize,
    pool_size: usize,
    sgd: SgdConfig,
    seed: u64,
) -> EndToEnd {
    let run_cfg =
        RunConfig { pool_size, ng: 1, n_classes: dataset.n_classes, seed, ..Default::default() };
    let learn_cfg = LearningConfig {
        strategy: Strategy::Active { k: (pool_size / 2).max(1) },
        label_budget: budget,
        async_retrain: false,
        sgd,
        seed,
        ..Default::default()
    };
    let out: LearningOutcome = LearningRunner::new(dataset, run_cfg, learn_cfg, population).run();
    EndToEnd { name: "Base-R", curve: out.curve, report: out.report }
}

/// Full CLAMShell: straggler mitigation + PM8 maintenance + hybrid
/// learning with pipelined retraining.
pub fn run_clamshell(
    dataset: &Dataset,
    population: Population,
    budget: usize,
    pool_size: usize,
    sgd: SgdConfig,
    seed: u64,
) -> EndToEnd {
    let run_cfg =
        RunConfig { pool_size, ng: 1, n_classes: dataset.n_classes, seed, ..Default::default() }
            .with_straggler()
            .with_maintenance();
    let learn_cfg = LearningConfig {
        strategy: Strategy::Hybrid { active_frac: 0.5 },
        label_budget: budget,
        async_retrain: true,
        sgd,
        seed,
        ..Default::default()
    };
    let out: LearningOutcome = LearningRunner::new(dataset, run_cfg, learn_cfg, population).run();
    EndToEnd { name: "CLAMShell", curve: out.curve, report: out.report }
}

/// Raw label-acquisition comparison (§6.6's headline: "we also measured
/// the raw time to acquire 500 labels"): CLAMShell's batch machinery vs
/// the open market, no learning involved. Returns `(clamshell, base_nr)`.
pub fn headline_raw_labeling(
    population: Population,
    n_labels: usize,
    pool_size: usize,
    seed: u64,
) -> (RunReport, RunReport) {
    let specs = |seed_off: u64| -> Vec<TaskSpec> {
        (0..n_labels).map(|i| TaskSpec::new(vec![((i as u64 + seed_off) % 2) as u32])).collect()
    };
    let cfg = RunConfig { pool_size, ng: 1, seed, ..Default::default() }
        .with_straggler()
        .with_maintenance();
    let clam = crate::runner::run_batched(cfg, population.clone(), specs(0), pool_size);
    let nr = run_open_market(
        population,
        clamshell_crowd::PlatformConfig::default(),
        specs(0),
        OpenMarketConfig::default(),
        seed,
    );
    (clam, nr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_learn::datasets::generate::{make_classification, GenConfig};

    fn dataset(seed: u64) -> Dataset {
        make_classification(
            &GenConfig {
                n_samples: 500,
                n_features: 10,
                n_informative: 4,
                n_redundant: 2,
                class_sep: 1.6,
                flip_y: 0.01,
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn open_market_completes_everything() {
        let specs: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::new(vec![0])).collect();
        let r = run_open_market(
            Population::mturk_live(),
            clamshell_crowd::PlatformConfig::default(),
            specs,
            OpenMarketConfig::default(),
            1,
        );
        assert_eq!(r.tasks.len(), 40);
        assert_eq!(r.labels_produced(), 40);
        assert!(r.total_secs() > 0.0);
        assert_eq!(r.termination_rate(), 0.0);
    }

    #[test]
    fn open_market_start_dominated_by_recruitment() {
        // The earliest completion can't beat the fastest recruitment.
        let specs: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::new(vec![0])).collect();
        let pop = Population::mturk_live();
        let floor = pop.recruitment_floor;
        let r = run_open_market(
            pop,
            clamshell_crowd::PlatformConfig::default(),
            specs,
            OpenMarketConfig::default(),
            2,
        );
        let first = r.tasks.iter().map(|t| t.completed.as_secs_f64()).fold(f64::INFINITY, f64::min);
        assert!(first >= floor, "first={first} floor={floor}");
    }

    #[test]
    fn base_nr_learns_slowly_but_learns() {
        let ds = dataset(1);
        let out = run_base_nr(
            &ds,
            Population::mturk_live(),
            150,
            10,
            OpenMarketConfig::default(),
            SgdConfig { epochs: 10, ..Default::default() },
            1,
        );
        assert_eq!(out.name, "Base-NR");
        assert!(out.curve.final_accuracy() > 0.7);
    }

    #[test]
    fn clamshell_beats_base_nr_to_accuracy() {
        let ds = dataset(2);
        let budget = 150;
        let sgd = SgdConfig { epochs: 10, ..Default::default() };
        let clam = run_clamshell(&ds, Population::mturk_live(), budget, 10, sgd, 2);
        let nr = run_base_nr(
            &ds,
            Population::mturk_live(),
            budget,
            10,
            OpenMarketConfig::default(),
            sgd,
            2,
        );
        let threshold = 0.75;
        let t_clam = clam.curve.time_to_accuracy(threshold);
        let t_nr = nr.curve.time_to_accuracy(threshold);
        match (t_clam, t_nr) {
            (Some(a), Some(b)) => {
                assert!(a < b, "CLAMShell {a}s should beat Base-NR {b}s")
            }
            (Some(_), None) => {} // CLAMShell reached it, Base-NR never did
            other => panic!("CLAMShell failed to reach threshold: {other:?}"),
        }
    }

    #[test]
    fn headline_throughput_gap() {
        let (clam, nr) = headline_raw_labeling(Population::mturk_live(), 200, 15, 3);
        assert_eq!(clam.labels_produced(), 200);
        assert_eq!(nr.labels_produced(), 200);
        assert!(
            clam.throughput() > nr.throughput() * 3.0,
            "clam={} nr={}",
            clam.throughput(),
            nr.throughput()
        );
        // And the batch-time variance gap (the paper's 151x headline is a
        // ratio of stds; shape target: order(s) of magnitude).
        assert!(
            nr.batches[0].task_latency_std > clam.mean_batch_std() * 10.0,
            "nr std={} clam std={}",
            nr.batches[0].task_latency_std,
            clam.mean_batch_std()
        );
    }
}
