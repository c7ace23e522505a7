//! # CLAMShell
//!
//! A Rust reproduction of **"CLAMShell: Speeding up Crowds for
//! Low-latency Data Labeling"** (Daniel Haas, Jiannan Wang, Eugene Wu,
//! Michael J. Franklin — VLDB 2015).
//!
//! CLAMShell acquires labels from crowd workers at interactive speeds by
//! attacking every source of labeling latency:
//!
//! * **Retainer pools** eliminate recruitment latency by paying workers a
//!   small wage to stay on call.
//! * **Straggler mitigation** assigns idle workers to slow in-flight
//!   tasks, returning the first answer — batch variance drops by orders
//!   of magnitude.
//! * **Pool maintenance** continuously evicts workers whose empirical
//!   speed is significantly below threshold, converging the pool to its
//!   fast subpopulation; **TermEst** keeps the estimates honest when
//!   straggler mitigation hides slow tasks.
//! * **Hybrid learning** splits the pool between uncertainty-sampled
//!   (active) and random (passive) points, matching the better of the two
//!   on any dataset while using the pool's full parallelism.
//!
//! ## Quick start
//!
//! ```
//! use clamshell::prelude::*;
//!
//! // A crowd calibrated to the live-experiment scale of the paper.
//! let population = Population::mturk_live();
//!
//! // Full CLAMShell: straggler mitigation + PM8 pool maintenance.
//! let cfg = RunConfig { pool_size: 8, ng: 5, seed: 7, ..Default::default() }
//!     .with_straggler()
//!     .with_maintenance();
//!
//! // Label 16 five-record tasks in batches of 8.
//! let specs: Vec<TaskSpec> =
//!     (0..16).map(|i| TaskSpec::new(vec![(i % 2) as u32; 5])).collect();
//! let report = run_batched(cfg, population, specs, 8);
//!
//! assert_eq!(report.labels_produced(), 80);
//! println!(
//!     "labeled {} records in {:.1}s at ${:.2}",
//!     report.labels_produced(),
//!     report.total_secs(),
//!     report.cost.total_usd(),
//! );
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`sim`] | Deterministic discrete-event kernel: clock, events, RNG, distributions, statistics |
//! | [`trace`] | Worker populations calibrated to the paper's deployment statistics |
//! | [`crowd`] | Simulated crowd platform: retainer slots, recruitment, payments |
//! | [`learn`] | ML substrate: logistic/softmax regression, uncertainty sampling, dataset generators |
//! | [`quality`] | Quality control: majority voting, Dawid–Skene EM |
//! | [`core`] | The CLAMShell system: runner, straggler mitigation, pool maintenance, hybrid learning, baselines |
//! | [`sweep`] | Deterministic parallel sweep engine: seed × scenario grids on the calling thread plus scoped helpers |
//! | [`stream`] | Streaming service mode: open-loop task streams, periodic checkpoints, bounded-memory retirement |
//! | [`scenarios`] | Named adversity scenarios (churn, spammers, outages, …) + golden-master conformance suite |

pub use clamshell_core as core;
pub use clamshell_crowd as crowd;
pub use clamshell_learn as learn;
pub use clamshell_obs as obs;
pub use clamshell_quality as quality;
pub use clamshell_scenarios as scenarios;
pub use clamshell_sim as sim;
pub use clamshell_stream as stream;
pub use clamshell_sweep as sweep;
pub use clamshell_trace as trace;

/// The commonly-used surface in one import.
pub mod prelude {
    pub use clamshell_core::adversity::{AdversityConfig, BurstFault, ChurnFault, OutageFault};
    pub use clamshell_core::baselines::{
        headline_raw_labeling, run_base_nr, run_base_r, run_clamshell, run_open_market, EndToEnd,
        OpenMarketConfig,
    };
    pub use clamshell_core::config::{
        CheckoutStrategy, MaintenanceConfig, MaintenanceObjective, PoolConfig, QcMode, RunConfig,
        StragglerConfig,
    };
    pub use clamshell_core::learning::{LearningConfig, LearningOutcome, LearningRunner, Strategy};
    pub use clamshell_core::lifeguard::RoutingPolicy;
    pub use clamshell_core::metrics::{BatchStats, RunReport};
    pub use clamshell_core::poolmodel::PoolModel;
    pub use clamshell_core::runner::{run_batched, Runner};
    pub use clamshell_core::task::TaskSpec;
    pub use clamshell_crowd::{MemberState, PlatformConfig, RetainerPool, SimPlatform, WorkerId};
    pub use clamshell_learn::datasets::digits::{digits, DigitsConfig};
    pub use clamshell_learn::datasets::generate::{make_classification, GenConfig};
    pub use clamshell_learn::datasets::objects::{objects, ObjectsConfig};
    pub use clamshell_learn::eval::LearningCurve;
    pub use clamshell_learn::model::SgdConfig;
    pub use clamshell_learn::sampling::Uncertainty;
    pub use clamshell_learn::Dataset;
    pub use clamshell_obs::{MetricsSnapshot, ObsConfig, ObsReport};
    pub use clamshell_quality::{majority_vote, DawidSkene, EmConfig};
    pub use clamshell_scenarios::{CompactReport, ScenarioDef};
    pub use clamshell_sim::arrivals::ArrivalCounter;
    pub use clamshell_sim::{SimDuration, SimTime};
    pub use clamshell_stream::{
        run_stream, run_stream_with, StreamCheckpoint, StreamConfig, StreamDigest,
    };
    pub use clamshell_sweep::{CancelToken, Grid, GridError, Metric, MetricsAggregator};
    pub use clamshell_trace::{Archetype, ArchetypeMix, Population, WorkerProfile};
}
