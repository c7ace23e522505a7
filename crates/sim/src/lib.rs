//! # clamshell-sim
//!
//! Discrete-event simulation kernel underpinning the CLAMShell reproduction.
//!
//! The CLAMShell paper (Haas et al., VLDB 2015) evaluates its latency
//! techniques both on a Python simulator and on live Mechanical Turk
//! workers. This crate provides the deterministic substrate that both the
//! crowd-platform simulator (`clamshell-crowd`) and the system runner
//! (`clamshell-core`) are built on:
//!
//! * [`time`] — integer-millisecond simulated clock types with a total
//!   order (no floating-point drift in the event queue).
//! * [`events`] — a deterministic event queue: ties in firing time break by
//!   insertion sequence, so identical seeds produce identical runs.
//! * [`rng`] — a small, fast, seedable PRNG (SplitMix64-seeded
//!   xoshiro256**) so results are reproducible across dependency upgrades.
//! * [`dist`] — the probability distributions the worker model needs
//!   (normal, log-normal, truncated normal, exponential, Beta, …).
//! * [`stats`] — streaming statistics (Welford mean/variance), percentile
//!   summaries, empirical CDFs, and the one-sided significance test used by
//!   pool maintenance.
//! * [`faults`] — deterministic fault-injection primitives: labeled fault
//!   RNG streams and the lazy outage schedule the adversity scenarios
//!   defer platform events through.
//! * [`arrivals`] — deterministic open-loop task arrival schedules for
//!   the streaming service mode (`clamshell-stream`).
//!
//! Everything in this crate is pure computation: no I/O, no wall-clock
//! access, no global state.

#![warn(missing_docs)]

pub mod arrivals;
pub mod dist;
pub mod events;
pub mod faults;
pub mod rng;
pub mod stats;
pub mod time;

pub use arrivals::ArrivalCounter;
pub use dist::{Beta, Exponential, LogNormal, Normal, TruncNormal};
pub use events::EventQueue;
pub use faults::{fault_stream, OutageSchedule};
pub use rng::Rng;
pub use stats::{ecdf, percentile, OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
