//! Behavioural contracts per scenario: each named scenario must actually
//! produce its advertised failure mode, over and above what the golden
//! snapshots pin down.

use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_scenarios::find;
use clamshell_sim::json;
use clamshell_trace::Population;

fn base(seed: u64) -> RunConfig {
    RunConfig { pool_size: 8, ng: 2, seed, ..Default::default() }.with_straggler()
}

fn specs(n: usize) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect()
}

fn run(scenario: &str, seed: u64) -> clamshell_core::metrics::RunReport {
    let cfg =
        find(scenario).unwrap_or_else(|| panic!("unknown {scenario}")).config_from(&base(seed));
    run_batched(cfg, Population::mturk_live(), specs(32), 8)
}

/// Mean over a few seeds to keep the contrasts robust.
fn mean<F: Fn(&clamshell_core::metrics::RunReport) -> f64>(scenario: &str, f: F) -> f64 {
    let seeds = [1u64, 2, 3];
    seeds.iter().map(|&s| f(&run(scenario, s))).sum::<f64>() / seeds.len() as f64
}

#[test]
fn spammers_and_adversarial_degrade_accuracy() {
    let benign = mean("benign", |r| r.accuracy());
    let spam = mean("spammers", |r| r.accuracy());
    let adv = mean("adversarial", |r| r.accuracy());
    assert!(spam < benign, "spammers {spam} vs benign {benign}");
    assert!(adv < benign - 0.03, "adversarial {adv} vs benign {benign}");
}

#[test]
fn churn_departs_workers_and_still_finishes() {
    let departed = mean("churn", |r| r.workers_departed as f64);
    assert!(departed > 0.5, "mean departures {departed}");
    let r = run("churn", 4);
    assert_eq!(r.tasks.len(), 32);
}

#[test]
fn heavy_tail_and_blackout_stretch_latency() {
    let benign = mean("benign", |r| r.total_secs());
    let tail = mean("heavy-tail", |r| r.total_secs());
    let dark = mean("blackout", |r| r.total_secs());
    assert!(tail > benign, "heavy-tail {tail} vs benign {benign}");
    assert!(dark > benign, "blackout {dark} vs benign {benign}");
}

#[test]
fn bursty_reshapes_batches() {
    let r = run("bursty", 5);
    let sizes: Vec<usize> = r.batches.iter().map(|b| b.tasks).collect();
    assert!(sizes.iter().any(|&s| s != 8), "burst sizes vary: {sizes:?}");
    assert_eq!(sizes.iter().sum::<usize>(), 32, "no task lost to batching");
}

#[test]
fn perfect_storm_is_deterministic_and_completes() {
    let a = run("perfect-storm", 6);
    let b = run("perfect-storm", 6);
    assert_eq!(a.tasks.len(), 32);
    assert_eq!(
        json::to_string(&a),
        json::to_string(&b),
        "five composed faults stay a pure function of the seed"
    );
    assert!(a.workers_departed > 0 || a.termination_rate() > 0.0);
}

#[test]
fn sleepy_workers_fatten_the_tail() {
    // Compare p95-ish behaviour through mean batch std: sleepy stalls
    // raise within-batch variance relative to benign on the same seeds.
    let benign = mean("benign", |r| r.mean_batch_std());
    let sleepy = mean("sleepy", |r| r.mean_batch_std());
    assert!(sleepy > benign, "sleepy {sleepy} vs benign {benign}");
}
