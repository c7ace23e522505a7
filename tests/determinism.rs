//! Reproducibility: the whole stack is a pure function of its seed.

use clamshell::prelude::*;
use clamshell::sim::json;

fn specs(n: usize) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; 5])).collect()
}

fn fingerprint(report: &RunReport) -> String {
    // Stable fingerprint of everything observable.
    format!(
        "{}|{}|{}|{}|{:?}",
        report.total_secs(),
        report.cost.total_micro(),
        report.workers_recruited,
        report.workers_evicted,
        report
            .tasks
            .iter()
            .map(|t| (t.task, t.completed.as_millis(), t.winner.0))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn batch_runs_are_bit_deterministic() {
    let run = || {
        let cfg = RunConfig { pool_size: 10, ng: 5, seed: 99, ..Default::default() }
            .with_straggler()
            .with_maintenance();
        run_batched(cfg, Population::mturk_live(), specs(40), 10)
    };
    assert_eq!(fingerprint(&run()), fingerprint(&run()));
}

#[test]
fn different_seeds_diverge() {
    let run = |seed| {
        let cfg = RunConfig { pool_size: 10, ng: 5, seed, ..Default::default() };
        run_batched(cfg, Population::mturk_live(), specs(20), 10)
    };
    assert_ne!(fingerprint(&run(1)), fingerprint(&run(2)));
}

#[test]
fn open_market_is_deterministic() {
    let run = || {
        run_open_market(
            Population::mturk_live(),
            PlatformConfig::default(),
            specs(30),
            OpenMarketConfig::default(),
            7,
        )
    };
    assert_eq!(fingerprint(&run()), fingerprint(&run()));
}

#[test]
fn learning_runs_are_deterministic() {
    let ds = make_classification(&GenConfig::default(), 5);
    let run = || {
        let run_cfg = RunConfig { pool_size: 8, ng: 1, seed: 11, ..Default::default() };
        let learn_cfg = LearningConfig {
            strategy: Strategy::Hybrid { active_frac: 0.5 },
            label_budget: 60,
            sgd: SgdConfig { epochs: 8, ..Default::default() },
            seed: 11,
            ..Default::default()
        };
        LearningRunner::new(&ds, run_cfg, learn_cfg, Population::mturk_live()).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.curve.points.len(), b.curve.points.len());
    for (pa, pb) in a.curve.points.iter().zip(&b.curve.points) {
        assert_eq!(pa.time_secs, pb.time_secs);
        assert_eq!(pa.test_accuracy, pb.test_accuracy);
    }
}

#[test]
fn sweeps_are_thread_count_invariant() {
    // The engine's determinism contract: a sweep run with 1 thread and
    // with 4 threads yields byte-identical serialized reports and
    // byte-identical aggregate tables, because results are merged in
    // job-index order regardless of scheduling.
    let grid = || {
        Grid::new(
            RunConfig { pool_size: 8, ng: 5, ..Default::default() },
            Population::mturk_live(),
            specs(24),
            8,
        )
        .seeds(&[1, 2, 3, 4])
        .scenario("sm+pm", |c| {
            c.straggler = Some(Default::default());
            c.maintenance = Some(MaintenanceConfig::pm8());
        })
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("baseline", |_| {})
    };

    // Serialized reports, byte for byte.
    let one = grid().try_run_all(Some(1)).expect("scenario labels are unique");
    let four = grid().try_run_all(Some(4)).expect("scenario labels are unique");
    assert_eq!(one.len(), 12);
    let bytes = |reports: &[RunReport]| reports.iter().map(json::to_string).collect::<Vec<_>>();
    assert_eq!(bytes(&one), bytes(&four));

    // Aggregate tables, byte for byte.
    let table = |threads: usize| {
        let g = grid();
        let mut agg = MetricsAggregator::new(g.n_scenarios(), Metric::standard());
        let status = g.run_streaming(Some(threads), &mut agg);
        assert!(status.is_complete());
        let mut out = String::new();
        for s in 0..g.n_scenarios() {
            for m in agg.metrics().to_vec() {
                let cell = agg.stats(s, m.name);
                out.push_str(&format!(
                    "{s} {} n={} mean={:?} var={:?}\n",
                    m.name,
                    cell.count(),
                    cell.mean(),
                    cell.variance()
                ));
            }
        }
        out
    };
    assert_eq!(table(1), table(4));
}

#[test]
fn dataset_generators_are_deterministic() {
    assert_eq!(
        make_classification(&GenConfig::default(), 42),
        make_classification(&GenConfig::default(), 42)
    );
    let d1 = digits(&DigitsConfig { n_samples: 30, ..Default::default() }, 1);
    let d2 = digits(&DigitsConfig { n_samples: 30, ..Default::default() }, 1);
    assert_eq!(d1, d2);
    let o1 = objects(&ObjectsConfig { n_samples: 10, ..Default::default() }, 2);
    let o2 = objects(&ObjectsConfig { n_samples: 10, ..Default::default() }, 2);
    assert_eq!(o1, o2);
}
