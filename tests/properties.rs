//! Property-based tests over the whole stack: for arbitrary small
//! configurations, the system's core invariants hold.

use clamshell::prelude::*;
use clamshell::sim::json;
use proptest::prelude::*;
// `clamshell::prelude::Strategy` (the learning enum) collides with the
// proptest trait under glob imports; re-import the trait explicitly.
use proptest::strategy::Strategy as _;

fn arb_config() -> impl proptest::strategy::Strategy<Value = RunConfig> {
    let base = (
        2usize..8,     // pool size
        1u32..4,       // ng
        1u32..3,       // quorum
        any::<bool>(), // straggler mitigation
        any::<bool>(), // maintenance
        0u64..1000,    // seed
    );
    let lifecycle = (
        any::<bool>(), // LIFO checkout
        0usize..8,     // min_size floor (0 = none)
        0u64..300,     // reserve idle timeout, s (0 = none)
        any::<bool>(), // generations
        any::<bool>(), // idle members abandon (churn)
        any::<bool>(), // walkout fault
        any::<bool>(), // outage fault
    );
    (base, lifecycle).prop_map(
        |((pool_size, ng, quorum, sm, pm, seed), (lifo, floor, idle, gens, churn, walk, out))| {
            let mut cfg = RunConfig {
                pool_size,
                ng,
                n_classes: 2,
                quorum,
                churn,
                seed,
                ..Default::default()
            };
            if sm {
                cfg = cfg.with_straggler();
            }
            if pm {
                cfg = cfg.with_maintenance();
            }
            cfg.pool = PoolConfig {
                min_size: (floor > 0).then(|| floor.min(pool_size)),
                strategy: if lifo { CheckoutStrategy::Lifo } else { CheckoutStrategy::Fifo },
                idle_timeout: (idle > 0).then(|| SimDuration::from_secs(idle)),
                generations: gens,
            };
            if walk || out {
                cfg = cfg.with_adversity(AdversityConfig {
                    churn: walk.then(ChurnFault::default),
                    outage: out.then(OutageFault::default),
                    ..Default::default()
                });
            }
            cfg
        },
    )
}

/// The tally-based plurality vote `majority_vote` used to run, kept as
/// the oracle for its allocation-free rewrite: label -> (count, index of
/// its final update), max count, ties to the earliest final update, then
/// the smaller label.
fn tally_vote(votes: &[clamshell::quality::voting::Vote]) -> Option<u32> {
    let mut tally: Vec<(u32, usize, usize)> = Vec::new();
    for (i, v) in votes.iter().enumerate() {
        match tally.iter_mut().find(|(l, _, _)| *l == v.label) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 = i;
            }
            None => tally.push((v.label, 1, i)),
        }
    }
    tally
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(b.0.cmp(&a.0)))
        .map(|(l, _, _)| l)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every run completes every task exactly once, with consistent
    /// bookkeeping, for arbitrary configurations.
    #[test]
    fn runs_complete_all_tasks(cfg in arb_config(), n_tasks in 2usize..12) {
        let ng = cfg.ng as usize;
        let specs: Vec<TaskSpec> =
            (0..n_tasks).map(|i| TaskSpec::new(vec![(i % 2) as u32; ng])).collect();
        let batch = cfg.pool_size.min(n_tasks);
        let report = run_batched(cfg.clone(), Population::mturk_live(), specs, batch);

        // All tasks completed, each exactly once, each contributing ng
        // labels.
        prop_assert_eq!(report.tasks.len(), n_tasks);
        let mut ids: Vec<u32> = report.tasks.iter().map(|t| t.task).collect();
        ids.sort_unstable();
        prop_assert!(ids.iter().copied().eq(0..n_tasks as u32), "task ids {:?}", ids);
        prop_assert_eq!(report.labels_produced(), (n_tasks * ng) as u64);

        // Costs are composed of exactly the three ledgers.
        prop_assert_eq!(
            report.cost.total_micro(),
            report.cost.work_micro + report.cost.wait_micro + report.cost.recruit_micro
        );
        prop_assert!(report.cost.work_micro > 0);

        // Completion times sit inside the run window.
        for t in &report.tasks {
            prop_assert!(t.completed >= report.started);
            prop_assert!(t.completed <= report.finished);
            prop_assert!(t.completed >= t.created);
        }

        // Labels-over-time is strictly monotone in count.
        let series = report.labels_over_time();
        prop_assert!(series.windows(2).all(|w| w[0].1 < w[1].1));
        prop_assert_eq!(series.last().map(|x| x.1).unwrap_or(0), (n_tasks * ng) as u64);

        // A worker runs one assignment at a time: the intervals of their
        // answered assignments never overlap.
        let mut answered: Vec<_> = report
            .assignments
            .iter()
            .filter(|a| !a.terminated)
            .map(|a| (a.worker, a.start, a.end))
            .collect();
        answered.sort_unstable();
        for pair in answered.windows(2) {
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].2 <= pair[1].1, "overlapping assignments {:?}", pair);
            }
        }

        // Without SM (or walkouts), nothing is ever terminated.
        let walkouts = cfg.adversity.is_some_and(|a| a.churn.is_some());
        if cfg.straggler.is_none() && cfg.maintenance.is_none() && !walkouts {
            prop_assert_eq!(report.termination_rate(), 0.0);
        }
    }

    /// Same seed, same everything: the two whole reports serialize to
    /// the same bytes.
    #[test]
    fn determinism_under_arbitrary_configs(cfg in arb_config()) {
        let mk = || {
            let specs: Vec<TaskSpec> =
                (0..6).map(|i| TaskSpec::new(vec![(i % 2) as u32; cfg.ng as usize])).collect();
            run_batched(cfg.clone(), Population::mturk_live(), specs, 3)
        };
        prop_assert_eq!(json::to_string(&mk()), json::to_string(&mk()));
    }

    /// The §4.2 closed form stays inside its bounds and is monotone for
    /// arbitrary parameters.
    #[test]
    fn pool_model_bounds(q in 0.0f64..1.0, mu_f in 0.1f64..50.0, gap in 0.0f64..100.0, n in 0u32..200) {
        let model = PoolModel::new(q, mu_f, mu_f + gap);
        let v = model.expected_mpl(n);
        prop_assert!(v >= model.limit() - 1e-9);
        prop_assert!(v <= model.expected_mpl(0) + 1e-9);
        prop_assert!(model.expected_mpl(n + 1) <= v + 1e-9);
    }

    /// Majority vote is invariant under vote permutation and never
    /// invents labels.
    #[test]
    fn majority_vote_properties(labels in proptest::collection::vec(0u32..4, 1..12), rot in 0usize..12) {
        use clamshell::quality::voting::Vote;
        let votes: Vec<Vote> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| Vote { worker: i as u32, label: l })
            .collect();
        let winner = majority_vote(&votes).unwrap();
        prop_assert!(labels.contains(&winner));

        // A strict-majority label always wins, under any rotation.
        let mut counts = [0usize; 4];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let rotated: Vec<Vote> = {
            let k = rot % votes.len();
            votes[k..].iter().chain(&votes[..k]).copied().collect()
        };
        if let Some((best, &c)) = counts.iter().enumerate().max_by_key(|(_, &c)| c) {
            if 2 * c > labels.len() {
                prop_assert_eq!(winner, best as u32);
                prop_assert_eq!(majority_vote(&rotated), Some(best as u32));
            }
        }
    }

    /// The allocation-free majority vote picks exactly what a label tally
    /// picks, ties included: small label alphabets make tied counts and
    /// tie-breaks on the final-update index common.
    #[test]
    fn majority_vote_matches_tally_oracle(labels in proptest::collection::vec(0u32..3, 0..10)) {
        use clamshell::quality::voting::Vote;
        let votes: Vec<Vote> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| Vote { worker: i as u32, label: l })
            .collect();
        prop_assert_eq!(majority_vote(&votes), tally_vote(&votes));
    }

    /// Worker latency sampling respects the profile floor and scales with
    /// task size.
    #[test]
    fn worker_sampling_respects_floor(
        mean in 1.0f64..20.0,
        std in 0.0f64..30.0,
        ng in 1u32..12,
        seed in 0u64..500,
    ) {
        let profile = WorkerProfile::fixed(mean, std, 0.9);
        let mut rng = clamshell::sim::rng::Rng::new(seed);
        for _ in 0..50 {
            let secs = profile.sample_task_secs(ng, &mut rng);
            prop_assert!(secs >= profile.min_label_secs * ng as f64);
            prop_assert!(secs.is_finite());
        }
    }

    /// The two-list event queue pops in exactly the same order as a
    /// reference `BinaryHeap` model (min by `(time, seq)` — i.e. earliest
    /// time, FIFO within a timestamp) under random interleaved
    /// schedule/pop sequences.
    #[test]
    fn event_queue_matches_binary_heap_model(
        ops in proptest::collection::vec((0u64..64, 0u32..4), 4..300),
    ) {
        use clamshell::sim::{EventQueue, SimTime};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut queue: EventQueue<u64> = EventQueue::new();
        // Model: Reverse<(time, seq, payload)> — tuple order is exactly
        // the documented contract, and payload never breaks ties because
        // (time, seq) is unique.
        let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut drained = 0usize;
        for (seq, &(delta, pops)) in ops.iter().enumerate() {
            let seq = seq as u64;
            let at = queue.now().as_millis() + delta;
            queue.schedule(SimTime::from_millis(at), seq);
            model.push(Reverse((at, seq, seq)));
            for _ in 0..pops {
                let got = queue.pop();
                let want = model.pop().map(|Reverse((t, _, p))| (SimTime::from_millis(t), p));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
                drained += 1;
            }
        }
        // Drain the rest; the full order must agree.
        loop {
            let got = queue.pop();
            let want = model.pop().map(|Reverse((t, _, p))| (SimTime::from_millis(t), p));
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
            drained += 1;
        }
        prop_assert_eq!(drained, ops.len());
    }

    /// Dataset generation always produces valid, balanced-ish datasets.
    #[test]
    fn generated_datasets_valid(
        n in 20usize..200,
        d in 4usize..30,
        sep in 0.2f64..3.0,
        seed in 0u64..100,
    ) {
        let cfg = GenConfig {
            n_samples: n,
            n_features: d.max(6),
            n_informative: 3,
            n_redundant: 2,
            class_sep: sep,
            flip_y: 0.05,
            ..Default::default()
        };
        let ds = make_classification(&cfg, seed);
        ds.validate();
        prop_assert_eq!(ds.len(), n);
        let counts = ds.class_counts();
        // Round-robin construction keeps classes within one of each other
        // before flips; flips can move a few.
        prop_assert!(counts.iter().all(|&c| c > 0));
    }
}
