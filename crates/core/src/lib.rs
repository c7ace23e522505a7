//! # clamshell-core
//!
//! The CLAMShell system (Haas et al., VLDB 2015): fast crowd data labeling
//! via straggler mitigation, retainer-pool maintenance, and hybrid
//! active/passive learning.
//!
//! Architecture follows Figure 1 of the paper:
//!
//! ```text
//!          ┌──────────┐  batch   ┌───────────┐  tasks  ┌────────────────┐
//!  user →  │  Batcher │ ───────► │ LifeGuard │ ──────► │ Crowd platform │
//!          │ +Selector│          │ Scheduler │         │  (slots S1..Sn)│
//!          └────▲─────┘          │ Mitigator │         └──────┬─────────┘
//!               │ labels         │ Maintainer│                │ answers
//!               └────────────────┴───────────◄────────────────┘
//! ```
//!
//! The Batcher is [`runner::run_batched`] for a task set and, for a task
//! stream, the `clamshell-stream` engine, which forms batches with the
//! same [`runner::BatchSizer`].
//!
//! * [`config`] — every experimental knob from Table 3 (`PMℓ`, `SM`, `Np`,
//!   `Ng`, `R`, `Alg`) plus quality-control quorum.
//! * [`adversity`] — deterministic fault injection: worker churn,
//!   spammer/adversarial/sleepy archetypes, platform outages, bursty
//!   arrivals, heavy-tailed latency inflation (named catalog in the
//!   `clamshell-scenarios` crate).
//! * [`task`] — tasks, assignments and their lifecycles.
//! * [`lifeguard`] — straggler-mitigation routing policies (§4.1).
//! * [`maintainer`] — pool maintenance: per-worker latency accounting, the
//!   one-sided eviction test, TermEst (§4.2–§4.3).
//! * [`poolmodel`] — the closed-form pool-convergence model of §4.2.
//! * [`runner`] — the deterministic discrete-event executor that binds the
//!   policies to the simulated crowd ([`clamshell_crowd`]).
//! * [`metrics`] — run reports: per-task/assignment logs, per-batch
//!   latency/variance, cost; everything Figures 3–14 need.
//! * [`learning`] — the full-run loop: active / passive / hybrid learning
//!   with pipelined retraining (§5).
//! * [`baselines`] — `Base-NR` and `Base-R` from §6.6 plus the full
//!   CLAMShell configuration.

#![warn(missing_docs)]

pub mod adversity;
pub mod baselines;
pub mod config;
pub mod learning;
pub mod lifeguard;
pub mod maintainer;
pub mod metrics;
pub mod poolmodel;
pub mod runner;
pub mod task;

pub use adversity::{AdversityConfig, BurstFault, ChurnFault, OutageFault};
pub use config::{
    CheckoutStrategy, MaintenanceConfig, MaintenanceObjective, PoolConfig, QcMode, RunConfig,
    StragglerConfig,
};
pub use learning::{LearningConfig, LearningOutcome, LearningRunner, Strategy};
pub use lifeguard::RoutingPolicy;
pub use metrics::{BatchStats, RunReport};
pub use runner::{run_batched, BatchSizer, LifecycleCounts, RetiredRows, Runner};
pub use task::TaskSpec;
