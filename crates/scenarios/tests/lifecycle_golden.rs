//! Pool-lifecycle fingerprint golden.
//!
//! The compact goldens pin only the default [`PoolConfig`], so the
//! lifecycle mechanisms (LIFO checkout, reserve idle timeouts, blackout
//! generations, the `min_size` floor and its demand surges) would have no
//! bit-level check without this suite. It runs every catalog scenario ×
//! [`variants`] × [`SEEDS`], driving the runner batch by batch with a
//! clock gap after each batch so reserve workers sit long enough for
//! their idle timeouts (and idle members for their patience) to run out.
//! Each committed row is the FNV-1a hash of the full `RunReport` JSON
//! beside its lifecycle counters, in
//! `crates/scenarios/golden/lifecycle_fingerprints.json`.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test lifecycle_golden`

use clamshell_core::task::TaskSpec;
use clamshell_core::{BatchSizer, CheckoutStrategy, PoolConfig, RunConfig, Runner};
use clamshell_obs::{fingerprint_hex, Fnv};
use clamshell_scenarios::{catalog, golden, ScenarioDef};
use clamshell_sim::time::SimDuration;
use clamshell_sweep::{pool, threads};
use clamshell_trace::Population;
use serde::Serialize;

const GOLDEN_NAME: &str = "lifecycle_fingerprints";
const SEEDS: [u64; 4] = [1, 2, 3, 4];
const N_TASKS: usize = 32;
const BATCH: usize = 8;
/// Clock gap after every batch: long enough for reserve idle timeouts
/// and member patience to expire between batches.
const GAP: SimDuration = SimDuration::from_mins(3);

/// The pool variants: both checkout strategies, each lifecycle mechanism
/// on its own, and all of them at once.
fn variants() -> Vec<(&'static str, PoolConfig)> {
    let fifo = PoolConfig::default();
    let lifo = PoolConfig { strategy: CheckoutStrategy::Lifo, ..fifo };
    let idle = Some(SimDuration::from_secs(60));
    let floor = Some(4);
    vec![
        ("fifo", fifo),
        ("lifo", lifo),
        ("fifo+idle", PoolConfig { idle_timeout: idle, ..fifo }),
        ("lifo+idle", PoolConfig { idle_timeout: idle, ..lifo }),
        ("fifo+gen", PoolConfig { generations: true, ..fifo }),
        ("fifo+floor", PoolConfig { min_size: floor, ..fifo }),
        ("lifo+all", PoolConfig { min_size: floor, idle_timeout: idle, generations: true, ..lifo }),
    ]
}

fn base_config(seed: u64) -> RunConfig {
    RunConfig { pool_size: 8, ng: 2, seed, ..Default::default() }
        .with_straggler()
        .with_maintenance()
}

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    pool: &'static str,
    seed: u64,
    reserve_expired: u64,
    stale_retired: u64,
    workers_departed: u64,
    workers_evicted: u64,
    fingerprint: String,
}

/// One cell: the scenario's config under `pool`, run batch by batch with
/// a [`GAP`] after each batch (batch sizes from [`BatchSizer`], so
/// `bursty` keeps its bursts).
fn run_cell(def: &'static ScenarioDef, pool: &'static str, config: PoolConfig, seed: u64) -> Row {
    let cfg = def.config_from(&base_config(seed)).with_pool(config);
    let mut sizer = BatchSizer::new(&cfg, BATCH);
    let mut runner = Runner::new(cfg, Population::mturk_live());
    runner.warm_up();
    let mut specs = (0..N_TASKS).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2]));
    loop {
        let chunk: Vec<TaskSpec> = specs.by_ref().take(sizer.next_size()).collect();
        if chunk.is_empty() {
            break;
        }
        runner.run_batch(chunk);
        runner.advance(GAP);
    }
    let report = runner.finish();
    let mut h = Fnv::new();
    h.write(serde_json::to_string(&report).expect("report serializes").as_bytes());
    Row {
        scenario: def.name,
        pool,
        seed,
        reserve_expired: report.reserve_expired,
        stale_retired: report.stale_retired,
        workers_departed: report.workers_departed,
        workers_evicted: report.workers_evicted,
        fingerprint: fingerprint_hex(h.finish()),
    }
}

/// Every cell, scenario-major, then variant, then seed.
fn lifecycle_suite(threads: usize) -> Vec<Row> {
    let mut cells = Vec::new();
    for def in catalog() {
        for (label, config) in variants() {
            for seed in SEEDS {
                cells.push((def, label, config, seed));
            }
        }
    }
    pool::map(cells, threads, |_, _, (s, v, c, seed)| run_cell(s, v, c, seed))
}

/// One JSON object per line, like the other golden files.
fn render(rows: &[Row]) -> String {
    let lines: Vec<String> =
        rows.iter().map(|r| serde_json::to_string(r).expect("row serializes")).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn lifecycle_fingerprint_conformance() {
    let rows = lifecycle_suite(threads::resolve(None));
    assert_eq!(rows.len(), catalog().len() * variants().len() * SEEDS.len());
    let rendered = render(&rows);
    if golden::blessing() {
        golden::bless(GOLDEN_NAME, &rendered);
        return;
    }
    match golden::read(GOLDEN_NAME) {
        Some(committed) => assert_eq!(
            committed, rendered,
            "lifecycle fingerprints drifted (regenerate intentionally with CLAMSHELL_BLESS=1)"
        ),
        None => panic!("no committed lifecycle fingerprints (bless with CLAMSHELL_BLESS=1)"),
    }
}

#[test]
fn lifecycle_suite_exercises_every_pool_exit() {
    // The golden pins nothing about a mechanism that never fires: each
    // way a worker leaves the pool or the reserve must occur in the set.
    let rows = lifecycle_suite(threads::resolve(None));
    let total = |f: fn(&Row) -> u64| rows.iter().map(f).sum::<u64>();
    assert!(total(|r| r.reserve_expired) > 0, "idle timeouts must release reserve workers");
    assert!(total(|r| r.stale_retired) > 0, "generations must retire stale members");
    assert!(total(|r| r.workers_departed) > 0, "churn must walk workers out");
    assert!(total(|r| r.workers_evicted) > 0, "maintenance must evict slow workers");
}
