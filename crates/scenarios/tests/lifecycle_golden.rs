//! Pool-lifecycle fingerprint golden.
//!
//! The compact goldens pin only the default [`PoolConfig`], so the
//! lifecycle mechanisms (LIFO checkout, reserve idle timeouts, blackout
//! generations, the `min_size` floor and its demand surges) would have no
//! bit-level check without this suite. It runs every [`inputs`] config ×
//! catalog scenario × [`variants`] × [`SEEDS`], driving the runner batch
//! by batch with a clock gap after each batch so reserve workers sit long
//! enough for their idle timeouts (and idle members for their patience)
//! to run out. Each committed row is the FNV-1a hash of the full
//! `RunReport` JSON beside its lifecycle counters, in
//! `crates/scenarios/golden/lifecycle_fingerprints.json`.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test lifecycle_golden`

use clamshell_core::task::TaskSpec;
use clamshell_core::{
    BatchSizer, CheckoutStrategy, MaintenanceConfig, MaintenanceObjective, PoolConfig, RunConfig,
    Runner,
};
use clamshell_obs::{fingerprint_hex, Fnv};
use clamshell_scenarios::{catalog, golden, ScenarioDef};
use clamshell_sim::json;
use clamshell_sim::time::SimDuration;
use clamshell_sweep::{pool, threads};
use clamshell_trace::Population;

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

fn speed_config(seed: u64) -> RunConfig {
    RunConfig { pool_size: 8, ng: 2, seed, ..Default::default() }
        .with_straggler()
        .with_maintenance()
}

/// Quorum 3 under the `SpeedAndQuality` objective: every completed task
/// feeds each responder's agreement rate, including responders who have
/// since walked out or been evicted, and the quality leg can evict.
fn quality_config(seed: u64) -> RunConfig {
    let objective = MaintenanceObjective::SpeedAndQuality { min_agreement: 0.8 };
    RunConfig {
        quorum: 3,
        maintenance: Some(MaintenanceConfig { objective, ..MaintenanceConfig::pm8() }),
        ..speed_config(seed)
    }
}

/// A base config for a seed.
type Base = fn(u64) -> RunConfig;

/// The base configs, each with the suffix its rows append to the `pool`
/// label: the speed objective at quorum 1 (bare labels), then quorum-3
/// quality maintenance.
fn inputs() -> [(&'static str, Base); 2] {
    [("", speed_config), ("@quorum3+quality", quality_config)]
}

struct Row {
    scenario: &'static str,
    pool: String,
    seed: u64,
    reserve_expired: u64,
    stale_retired: u64,
    workers_departed: u64,
    workers_evicted: u64,
    fingerprint: String,
}

clamshell_sim::json_struct! {
    Row { scenario, pool, seed, reserve_expired, stale_retired, workers_departed,
        workers_evicted, fingerprint }
}

/// One cell's inputs: base config and its label suffix, scenario, pool
/// variant and its label, and seed.
type Cell = (Base, &'static str, &'static ScenarioDef, &'static str, PoolConfig, u64);

/// One cell: the scenario's config under `pool`, run batch by batch with
/// a [`GAP`] after each batch (batch sizes from [`BatchSizer`], so
/// `bursty` keeps its bursts).
fn run_cell((base, suffix, def, pool, config, seed): Cell) -> Row {
    let cfg = def.config_from(&base(seed)).with_pool(config);
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
    h.write(json::to_string(&report).as_bytes());
    Row {
        scenario: def.name,
        pool: format!("{pool}{suffix}"),
        seed,
        reserve_expired: report.reserve_expired,
        stale_retired: report.stale_retired,
        workers_departed: report.workers_departed,
        workers_evicted: report.workers_evicted,
        fingerprint: fingerprint_hex(h.finish()),
    }
}

/// Every cell, input-major, then scenario, then variant, then seed.
fn lifecycle_suite(threads: usize) -> Vec<Row> {
    let mut cells: Vec<Cell> = Vec::new();
    for (suffix, base) in inputs() {
        for def in catalog() {
            for (label, config) in variants() {
                for seed in SEEDS {
                    cells.push((base, suffix, def, label, config, seed));
                }
            }
        }
    }
    pool::map(cells, threads, |_, _, cell| run_cell(cell))
}

/// One JSON object per line, like the other golden files.
fn render(rows: &[Row]) -> String {
    golden::render_lines(rows.iter().map(json::to_string))
}

#[test]
fn lifecycle_fingerprint_conformance() {
    let rows = lifecycle_suite(threads::resolve(None));
    assert_eq!(rows.len(), inputs().len() * catalog().len() * variants().len() * SEEDS.len());
    golden::check(GOLDEN_NAME, &render(&rows));
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
    // The quorum-3 rows must see departures and evictions too, so quality
    // evidence from workers who left the pool is on the pinned path.
    let quality = |f: fn(&Row) -> u64| {
        rows.iter().filter(|r| r.pool.ends_with(inputs()[1].0)).map(f).sum::<u64>()
    };
    assert!(quality(|r| r.workers_departed) > 0, "quorum-3 churn must walk workers out");
    assert!(quality(|r| r.workers_evicted) > 0, "quality maintenance must evict");
}
