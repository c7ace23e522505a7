//! # clamshell-quality
//!
//! Quality control for crowd labels.
//!
//! CLAMShell's latency techniques are explicitly "compatible with standard
//! quality control algorithms such as redundancy-based voting schemes and
//! worker quality estimation algorithms" (§1), and §4.1 describes how
//! straggler mitigation decouples from redundant voting. This crate
//! supplies those standard algorithms:
//!
//! * [`voting`] — first-answer and majority-vote aggregation with vote
//!   quorums (the `v`-answer tasks of §4.1 "Working with Quality Control").
//! * [`em`] — Dawid–Skene-style expectation–maximization estimating worker
//!   accuracies and consensus labels jointly (the family of [Ipeirotis et
//!   al. 2010] / [Karger et al. 2011] cited by the paper).

#![warn(missing_docs)]

pub mod em;
pub mod voting;

pub use em::{DawidSkene, EmConfig, EmResult};
pub use voting::{majority_vote, Vote};
