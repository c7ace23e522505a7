//! Property-based streamed/batched equivalence: the crate's load-bearing
//! contract, checked over arbitrary `(seed, scenario, rate, checkpoint
//! interval, retirement mode)` tuples.
//!
//! For every sampled tuple the suite workload is run twice — once
//! through `run_batched`, once through the streaming service loop — and
//! the outcomes must agree bit for bit:
//!
//! * retained mode: byte-identical `RunReport` JSON (which covers every
//!   record, every millisecond, and the obs fingerprint when enabled);
//! * retire mode: identical `StreamDigest` (the incremental fold over
//!   retired rows equals the digest of the whole batched report) plus
//!   identical scalars;
//! * both modes: identical checkpoint sequences regardless of rate-
//!   driven `arrived`/`backlog` fields, which are masked before compare.

use clamshell_scenarios::suite;
use clamshell_sim::arrivals::ArrivalCounter;
use clamshell_sim::SimTime;
use clamshell_stream::{run_stream, run_stream_with, StreamConfig, StreamDigest};
use proptest::prelude::*;

/// Arrival rates spanning three orders of magnitude (strategy: sample an
/// index, map to the rate — the vendored proptest has no `select`).
fn arb_rate() -> impl Strategy<Value = f64> {
    (0usize..5).prop_map(|i| [0.1f64, 0.5, 1.5, 10.0, 200.0][i])
}

/// The batched reference and the streamed run for one catalog cell.
fn cell_job(scenario_idx: usize, seed: u64) -> clamshell_sweep::job::Job {
    let g = clamshell_scenarios::grid(
        suite::base_config(),
        suite::population(),
        suite::specs(),
        suite::BATCH,
    )
    .seeds(&[seed]);
    let mut jobs = g.jobs();
    let n = clamshell_scenarios::catalog().len();
    jobs.swap_remove(scenario_idx % n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streamed == batched, bit for bit, for arbitrary service knobs
    /// under arbitrary adversity scenarios.
    #[test]
    fn streamed_run_is_bit_identical_to_batched(
        scenario_idx in 0usize..16,
        seed in 1u64..500,
        rate in arb_rate(),
        checkpoint_every in 1usize..10,
        retire in any::<bool>(),
    ) {
        let job = cell_job(scenario_idx, seed);
        let batched = job.run();
        let stream = StreamConfig { rate_per_sec: rate, checkpoint_every, retire };
        let outcome = run_stream(
            job.cfg.clone(),
            (*job.population).clone(),
            job.specs.iter().cloned(),
            job.specs.len(),
            job.batch_size,
            &stream,
        );

        // The digest of the streamed rows equals the digest of the
        // batched report in every mode.
        prop_assert_eq!(outcome.digest.values(), StreamDigest::of(&batched).values());

        if retire {
            // Rows were retired through the digest; scalars survive.
            prop_assert!(outcome.report.tasks.is_empty());
            prop_assert!(outcome.report.assignments.is_empty());
            prop_assert_eq!(outcome.report.cost.total_micro(), batched.cost.total_micro());
            prop_assert_eq!(outcome.report.workers_recruited, batched.workers_recruited);
            prop_assert_eq!(outcome.report.workers_evicted, batched.workers_evicted);
            prop_assert_eq!(outcome.report.workers_departed, batched.workers_departed);
            prop_assert_eq!(outcome.report.started, batched.started);
            prop_assert_eq!(outcome.report.finished, batched.finished);
        } else {
            // Retained mode: the full report is byte-identical.
            prop_assert_eq!(
                serde_json::to_string(&outcome.report).unwrap(),
                serde_json::to_string(&batched).unwrap()
            );
        }

        // The final checkpoint pins the complete run. Its cost is the
        // ledger *at the last batch boundary*; `finish()` then settles
        // outstanding pool/reserve waiting wages, so the report's final
        // cost can only be at or above it.
        let last = outcome.checkpoints.last();
        prop_assert_eq!(last.completed as usize, job.specs.len());
        prop_assert!(last.cost_micro <= batched.cost.total_micro());
        let (dt, da, db) = outcome.digest.values();
        prop_assert_eq!(last.digest_tasks, dt);
        prop_assert_eq!(last.digest_assignments, da);
        prop_assert_eq!(last.digest_batches, db);
    }

    /// Retirement mode never changes a checkpoint byte, and arrival rate
    /// only moves the open-loop reporting fields.
    #[test]
    fn checkpoints_invariant_to_retirement_and_rate(
        scenario_idx in 0usize..16,
        seed in 1u64..500,
        checkpoint_every in 1usize..10,
    ) {
        let job = cell_job(scenario_idx, seed);
        let run = |rate: f64, retire: bool| {
            let mut checkpoints = Vec::new();
            run_stream_with(
                job.cfg.clone(),
                (*job.population).clone(),
                job.specs.iter().cloned(),
                job.specs.len(),
                job.batch_size,
                &StreamConfig { rate_per_sec: rate, checkpoint_every, retire },
                |c| checkpoints.push(c.clone()),
            );
            checkpoints
        };
        let retained = run(1.5, false);
        let retiring = run(1.5, true);
        prop_assert_eq!(&retained, &retiring);

        let fast = run(100.0, true);
        prop_assert_eq!(retained.len(), fast.len());
        for (a, b) in retained.iter().zip(&fast) {
            let mut masked = b.clone();
            masked.arrived = a.arrived;
            masked.backlog = a.backlog;
            prop_assert_eq!(a, &masked, "only arrival fields may depend on rate");
        }
    }

    /// The arrival timeline itself is a pure, monotone function of
    /// `(seed, rate)` — the other half of the open-loop contract.
    #[test]
    fn arrival_schedule_is_pure(seed in 0u64..10_000, rate in arb_rate()) {
        let mut a = ArrivalCounter::new(seed, rate);
        let mut b = ArrivalCounter::new(seed, rate);
        let mut prev = 0;
        for i in 0..60 {
            let t = SimTime::from_millis(i * 500);
            let n = a.arrived_by(t);
            prop_assert_eq!(n, b.arrived_by(t));
            prop_assert!(n >= prev);
            prev = n;
        }
    }
}
