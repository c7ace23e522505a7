//! # clamshell-stream
//!
//! Streaming service mode for the CLAMShell reproduction: tasks arrive
//! as an **unbounded open-loop stream** at a target rate, the runner
//! ingests them incrementally, progress is reported as periodic
//! [`StreamCheckpoint`]s handed to the caller's sink as they are
//! emitted, and completed-task state can be retired at batch boundaries.
//!
//! Memory contract: with retirement on, the engine's live state is one
//! batch of task state plus fixed tables plus the final checkpoint,
//! however long the stream runs. The engine never stores the checkpoint
//! sequence; a caller that wants it collects it in the sink of
//! [`run_stream_with`]. (`repro serve`'s batched equivalence check then
//! builds every spec and a full report on purpose, so that check is
//! O(n) in the stream length; the stream itself is not.)
//!
//! The paper (Haas et al., VLDB 2015) evaluates CLAMShell on finite
//! batches; a deployed labeling service instead faces a continuous task
//! feed. This crate grafts that service shape onto the existing
//! deterministic engine **without forking the scheduler**, which yields
//! the crate's load-bearing contract:
//!
//! > A streamed run over the first `N` tasks of a source is
//! > **bit-for-bit equivalent** to the batched run over the same `N`
//! > specs: identical final [`RunReport`](clamshell_core::metrics::RunReport),
//! > identical trace fingerprint, identical cost ledger.
//!
//! Three design decisions make the contract hold (see ARCHITECTURE.md,
//! "Streaming service mode"):
//!
//! 1. **Arrivals are observability-only.** The arrival process
//!    ([`clamshell_sim::arrivals`]) is a dedicated labeled RNG stream of
//!    the run seed; arrival instants never gate admission and never
//!    advance the simulated clock, so scheduling is identical at any
//!    rate.
//! 2. **Chunk formation is shared.** The engine draws batch sizes from
//!    the same [`BatchSizer`](clamshell_core::BatchSizer) that
//!    [`run_batched`](clamshell_core::runner::run_batched) uses, so
//!    batch boundaries (and the burst-fault draw sequence) coincide.
//! 3. **Retirement is a pure memory operation.** Task/assignment ids
//!    are stream positions; retiring the completed prefix only shifts
//!    the id base of the live tables
//!    ([`Runner::retire_completed`](clamshell_core::Runner::retire_completed)),
//!    never a scheduling decision. The incremental [`StreamDigest`]
//!    folds each batch's rows just before they retire and equals the
//!    digest of the batched report.
//!
//! Modules:
//!
//! * [`source`] — deterministic unbounded task-spec generators.
//! * [`checkpoint`] — [`StreamCheckpoint`] snapshots and the running
//!   [`StreamDigest`].
//! * [`engine`] — [`run_stream_with`] (and [`run_stream`], its
//!   sink-less form): the open-loop service loop.
//! * [`dashboard`] — deterministic plain-text rendering of checkpoint
//!   rows, one line per emission (used by `repro serve` and the
//!   `streaming_dashboard` example).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod dashboard;
pub mod engine;
pub mod source;

pub use checkpoint::{StreamCheckpoint, StreamDigest};
pub use engine::{run_stream, run_stream_with, CheckpointTally, StreamConfig, StreamOutcome};
