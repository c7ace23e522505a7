//! # clamshell-crowd
//!
//! A simulated microtask crowd platform — the Mechanical Turk substitute
//! for the CLAMShell reproduction.
//!
//! The paper's live experiments run on a "custom implementation of the
//! retainer model for MTurk" (§6.1): recruitment tasks are re-posted every
//! 3 minutes until the pool fills, workers are paid $0.05/minute to wait
//! and $0.02/record to work, and terminated assignments still pay for
//! partial work. This crate reproduces that platform as a deterministic
//! generative model:
//!
//! * [`platform::SimPlatform`] — recruitment: draws each arriving worker
//!   from a [`clamshell_trace::Population`] and hands them out as a
//!   [`platform::Worker`] value (profile plus an independent forked RNG
//!   stream, which samples the worker's labels and patience), samples
//!   task durations, and owns the [`payment::CostLedger`]. It keeps no
//!   per-worker state: the holder of a `Worker` owns it.
//! * [`slots::RetainerPool`] — the slot set of Figure 1 (S1…S4): which
//!   workers currently hold a retainer slot, whether each is waiting or
//!   working, with deterministic iteration order, wait-time accounting,
//!   and the caller's per-member data.
//! * [`payment`] — the dollar ledger (wait pay, record pay, recruitment
//!   fees) used for every cost figure (4, 11, 12).
//!
//! The *policies* (who gets which task, when to evict, straggler
//! mitigation) live in `clamshell-core`; this crate only models mechanism
//! and stochastic behaviour, exactly the split the paper draws between
//! CLAMShell and the underlying crowd platform.

#![warn(missing_docs)]

pub mod faults;
pub mod payment;
pub mod platform;
pub mod slots;

pub use faults::{CrowdFaults, LatencyInflation};
pub use payment::CostLedger;
pub use platform::{PlatformConfig, SimPlatform, Worker, WorkerId};
pub use slots::{CheckoutStrategy, MemberState, PoolConfig, RetainerPool};
