//! Reconciliation audit: the flight recorder and the `RunReport`
//! counters are maintained by separate code paths, and every lifecycle
//! event the recorder captures must agree exactly with the aggregate the
//! report publishes. Pinned as a regression test so counter/trace drift
//! can never ship silently.

use clamshell_core::adversity::{AdversityConfig, ChurnFault, OutageFault};
use clamshell_core::config::{MaintenanceConfig, ObsConfig, PoolConfig, RunConfig};
use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_obs::registry::OCCUPANCY_BOUNDS;
use clamshell_obs::{names, Histogram, ObsReport, TraceKind};
use clamshell_sim::time::SimDuration;
use clamshell_trace::Population;

fn specs(n: usize, ng: usize) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; ng])).collect()
}

/// Obs with a ring large enough that nothing is ever dropped — the
/// reconciliation needs the complete event record.
fn obs_all() -> ObsConfig {
    ObsConfig::with_ring(1 << 16)
}

fn reconcile(cfg: RunConfig, n_tasks: usize, label: &str) {
    let report = run_batched(cfg, Population::mturk_live(), specs(n_tasks, 5), 8);
    let obs = report.obs.as_ref().expect("instrumented run");
    assert_eq!(obs.dropped, 0, "{label}: ring must be lossless for this audit");
    assert_eq!(
        obs.event_count("walkout"),
        report.workers_departed,
        "{label}: every recorded walkout must tally with workers_departed"
    );
    assert_eq!(
        obs.event_count("reserve_timeout"),
        report.reserve_expired,
        "{label}: every recorded reserve timeout must tally with reserve_expired"
    );
    assert_eq!(
        obs.event_count("stale_retired"),
        report.stale_retired,
        "{label}: every recorded stale retirement must tally with stale_retired"
    );
    assert_eq!(
        obs.event_count("maintenance_evict"),
        report.workers_evicted,
        "{label}: every recorded eviction must tally with workers_evicted"
    );
    // The retained events and the registry counters are fed by the same
    // `record` call; if they ever diverge the ring is corrupting data.
    for ev in ["walkout", "reserve_timeout", "stale_retired", "maintenance_evict"] {
        assert_eq!(
            obs.event_count(ev),
            obs.counter(&format!("runner.{ev}")),
            "{label}: counter vs ring drift for {ev}"
        );
    }
    pool_metrics_reconcile(obs, label);
}

/// The pool metrics are the pool events, aggregated: membership flow
/// balances, every checkout is checked in once, and the occupancy gauge
/// and histogram are the maximum and the buckets of the occupancy each
/// join and leave event carries. The three entries exist even at zero.
fn pool_metrics_reconcile(obs: &ObsReport, label: &str) {
    // Everyone who joined also left (the drain in `finish` empties the
    // pool).
    assert_eq!(
        obs.event_count("pool_join"),
        obs.event_count("pool_leave"),
        "{label}: pool joins and leaves must balance at drain"
    );
    assert_eq!(
        obs.event_count("checkout"),
        obs.event_count("dispatch"),
        "{label}: every dispatch checks a worker out"
    );
    assert_eq!(
        obs.metrics.counters.get(names::POOL_CHECKIN.as_str()).copied(),
        Some(obs.event_count("checkout")),
        "{label}: every checkout must be checked in exactly once"
    );
    let mut occupancy = Histogram::new(OCCUPANCY_BOUNDS);
    let mut hwm = 0;
    for ev in &obs.events {
        if let TraceKind::PoolJoin { occupancy: o, .. }
        | TraceKind::PoolLeave { occupancy: o, .. } = ev.kind
        {
            occupancy.observe(o);
            hwm = hwm.max(o);
        }
    }
    assert_eq!(
        obs.metrics.gauges.get(names::POOL_OCCUPANCY_HWM.as_str()).copied(),
        Some(hwm),
        "{label}: occupancy high-water mark must be the largest join/leave occupancy"
    );
    let hist = obs.histogram(names::POOL_OCCUPANCY.as_str()).expect("occupancy histogram");
    assert_eq!(hist.bounds, OCCUPANCY_BOUNDS, "{label}: occupancy bucket bounds");
    assert_eq!(
        hist.counts,
        occupancy.counts(),
        "{label}: occupancy buckets must be the join/leave occupancies"
    );
}

#[test]
fn benign_run_reconciles() {
    let cfg = RunConfig { obs: obs_all(), pool_size: 8, seed: 50, ..Default::default() };
    reconcile(cfg, 16, "benign");
}

#[test]
fn churn_walkouts_reconcile() {
    let cfg = RunConfig { obs: obs_all(), pool_size: 8, seed: 51, ..Default::default() }
        .with_adversity(AdversityConfig {
            churn: Some(ChurnFault { walkout_prob: 0.3, ..Default::default() }),
            ..AdversityConfig::NONE
        });
    let report = run_batched(cfg.clone(), Population::mturk_live(), specs(24, 5), 8);
    assert!(report.workers_departed > 0, "churn must actually fire for the audit to bite");
    reconcile(cfg, 24, "churn");
}

#[test]
fn maintenance_evictions_reconcile() {
    let cfg = RunConfig {
        obs: obs_all(),
        pool_size: 8,
        seed: 52,
        maintenance: Some(MaintenanceConfig {
            threshold_per_label_secs: 4.0,
            min_tasks: 1,
            ..MaintenanceConfig::pm8()
        }),
        ..Default::default()
    };
    let report = run_batched(cfg.clone(), Population::mturk_live(), specs(64, 5), 8);
    assert!(report.workers_evicted > 0, "aggressive threshold must evict");
    reconcile(cfg, 64, "maintenance");
}

#[test]
fn blackout_generations_reconcile() {
    let cfg = RunConfig {
        obs: obs_all(),
        pool_size: 8,
        seed: 53,
        pool: PoolConfig { generations: true, ..Default::default() },
        ..Default::default()
    }
    .with_adversity(AdversityConfig {
        outage: Some(OutageFault { mean_uptime_secs: 120.0, mean_outage_secs: 45.0 }),
        ..AdversityConfig::NONE
    });
    let report = run_batched(cfg.clone(), Population::mturk_live(), specs(24, 5), 8);
    assert!(report.stale_retired > 0, "blackouts must retire stale members");
    let obs = report.obs.as_ref().unwrap();
    assert!(obs.event_count("outage_defer") > 0, "outages must defer events");
    assert!(obs.event_count("outage_resume") > 0, "deferred windows must resume");
    reconcile(cfg, 24, "blackout");
}

#[test]
fn reserve_timeouts_reconcile() {
    let cfg = RunConfig {
        obs: obs_all(),
        pool_size: 8,
        seed: 54,
        maintenance: Some(MaintenanceConfig {
            threshold_per_label_secs: 1000.0,
            ..MaintenanceConfig::pm8()
        }),
        pool: PoolConfig { idle_timeout: Some(SimDuration::from_secs(30)), ..Default::default() },
        ..Default::default()
    };
    // Two batches separated by a long idle window so reserve recruits
    // land, sit out their 30s timeout, and expire (the same shape as the
    // runner's own idle-timeout test).
    let mut runner = clamshell_core::runner::Runner::new(cfg, Population::mturk_live());
    runner.warm_up();
    runner.run_batch(specs(8, 5));
    runner.advance(SimDuration::from_mins(60));
    runner.run_batch(specs(8, 5));
    let report = runner.finish();
    assert!(report.reserve_expired > 0, "timeouts must fire for the audit to bite");
    let obs = report.obs.as_ref().unwrap();
    assert_eq!(obs.event_count("reserve_timeout"), report.reserve_expired);
    pool_metrics_reconcile(obs, "reserve");
}

#[test]
fn composed_adversity_reconciles() {
    let cfg = RunConfig { obs: obs_all(), pool_size: 8, seed: 55, ..Default::default() }
        .with_adversity(AdversityConfig {
            churn: Some(ChurnFault::default()),
            outage: Some(OutageFault::default()),
            ..AdversityConfig::NONE
        })
        .with_straggler()
        .with_maintenance();
    reconcile(cfg, 24, "composed");
}
