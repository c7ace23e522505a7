//! # clamshell-sweep
//!
//! A deterministic parallel sweep engine for seed × scenario grids.
//!
//! Every CLAMShell figure is a Monte-Carlo average over seeds and a grid
//! of Table-3 knobs (`PMℓ`, `SM`, `Np`, `Ng`, `R`, `Alg`). Each cell of
//! such a grid is an independent simulation — a pure function of its
//! [`RunConfig`](clamshell_core::RunConfig) — so the whole sweep is
//! embarrassingly parallel. This crate fans the cells across the calling
//! thread plus scoped helper threads built from `std::thread` + channels
//! (no external dependencies; the build is offline) and merges results
//! back in **job-index order**, so the output of a sweep is
//! byte-identical regardless of thread count or scheduling.
//!
//! ## Layers
//!
//! * [`pool`] — the crate's one executor, a block pipeline: the calling
//!   thread (worker 0) and scoped helpers claim contiguous blocks of
//!   cells from one cursor, make and run each block on the claiming
//!   thread, and hand results through a reorder buffer to a sink on the
//!   calling thread in index order. [`pool::map`] is that executor with
//!   a collecting sink; every [`Grid`] run method and [`run_sharded`] are
//!   it with cells made per block by [`Grid::jobs_range`].
//! * [`job`] — the concrete sweep job: `(RunConfig, task specs, seed)`
//!   plus its population and batch size, evaluated via
//!   [`run_batched`](clamshell_core::runner::run_batched).
//! * [`grid`] — the [`Grid`] builder: enumerates scenario axes
//!   (mutation closures over a base config) × seeds into jobs.
//! * [`aggregate`] — streaming per-cell statistics on
//!   [`OnlineStats`](clamshell_sim::stats::OnlineStats), so million-cell
//!   sweeps never buffer every [`RunReport`](clamshell_core::metrics::RunReport).
//! * [`shard`] — mega-sweep scale-out: [`run_sharded`] folds the grid
//!   through the pipeline and appends an FNV-chained checkpoint manifest
//!   line per shard, so a killed million-cell sweep resumes at the last
//!   completed shard with bit-identical final statistics.
//! * [`progress`] — cancellation tokens and completion callbacks for
//!   [`run_sharded`].
//! * [`threads`] — thread-count resolution (see below).
//!
//! ## Thread-count resolution
//!
//! Every entry point takes `threads: Option<usize>` and resolves it
//! through [`threads::resolve`], in priority order:
//!
//! 1. the explicit argument (the `repro` binary's `--threads N` flag
//!    passes through here) — ignored if zero;
//! 2. the `CLAMSHELL_THREADS` environment variable — ignored if unset,
//!    unparsable, or zero;
//! 3. [`std::thread::available_parallelism`], floored at 1.
//!
//! The choice only affects wall-clock time, never output: results merge
//! in job-index order at any thread count (CI runs the whole workspace
//! suite under `CLAMSHELL_THREADS=1` and `=4` to enforce that).
//!
//! ## Quick start
//!
//! ```
//! use clamshell_core::{task::TaskSpec, RunConfig};
//! use clamshell_sweep::{Grid, MetricsAggregator, Metric};
//! use clamshell_trace::Population;
//!
//! let specs: Vec<TaskSpec> =
//!     (0..8).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
//! let grid = Grid::new(
//!     RunConfig { pool_size: 4, ng: 2, ..Default::default() },
//!     Population::mturk_live(),
//!     specs,
//!     4,
//! )
//! .seeds(&[1, 2, 3])
//! .scenario("SM", |c| c.straggler = Some(Default::default()))
//! .scenario("NoSM", |c| c.straggler = None);
//!
//! // Grouped reports, scenario-major, seeds in declared order.
//! let grouped = grid.run_grouped(Some(2)).expect("labels are unique and seeds non-empty");
//! assert_eq!(grouped.len(), 2);
//! assert_eq!(grouped[0].len(), 3);
//!
//! // Or stream into per-scenario statistics in bounded memory.
//! let mut agg = MetricsAggregator::new(grid.n_scenarios(), Metric::standard());
//! grid.run_streaming(Some(2), &mut agg);
//! assert_eq!(agg.stats(0, "total_secs").count(), 3);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod grid;
pub mod job;
pub mod pool;
pub mod progress;
pub mod shard;
pub mod threads;

pub use aggregate::{Aggregator, Metric, MetricsAggregator, ObsAggregator};
pub use grid::{Grid, GridError, JobMeta, Scenario};
pub use pool::ExecStatus;
pub use progress::{CancelToken, ProgressFn};
pub use shard::{run_sharded, ShardError, ShardOptions, ShardOutcome};
