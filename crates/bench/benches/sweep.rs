//! Sweep-engine throughput: the serial per-seed loop vs the sweep engine
//! (the calling thread plus scoped helpers) at increasing thread counts,
//! over a representative Monte-Carlo seed sweep (one full CLAMShell
//! batch run per seed). On a 4-core runner the 4-thread row should show
//! ≥ 2× the serial throughput; the `threads1` row runs every cell on the
//! calling thread, so it should track `serial` closely.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sweep::Grid;
use clamshell_trace::Population;

fn specs(n: usize, ng: usize) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; ng])).collect()
}

fn base_cfg() -> RunConfig {
    RunConfig { pool_size: 15, ng: 5, ..Default::default() }.with_straggler().with_maintenance()
}

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const N_TASKS: usize = 300;

/// The pre-engine path: one `run_batched` per seed, in a plain loop.
fn bench_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("seed_sweep_8");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| {
            let reports: Vec<_> = SEEDS
                .iter()
                .map(|&seed| {
                    let cfg = RunConfig { seed, ..base_cfg() };
                    run_batched(cfg, Population::mturk_live(), specs(N_TASKS, 5), 15)
                })
                .collect();
            black_box(reports)
        })
    });
    g.finish();
}

/// The same sweep through the engine at 1, 2, and 4 worker threads.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("seed_sweep_8");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| {
                let grid = Grid::new(base_cfg(), Population::mturk_live(), specs(N_TASKS, 5), 15)
                    .seeds(&SEEDS);
                black_box(grid.try_run_all(Some(threads)).expect("seed-only grid is valid"))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_serial, bench_engine);
criterion_main!(benches);
