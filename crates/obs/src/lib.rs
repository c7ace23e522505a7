//! Deterministic observability for the CLAMShell simulator.
//!
//! Everything in this crate is driven by *simulation* time and emits in
//! the deterministic order the runner produces events, so an enabled
//! trace is itself a reproducibility artifact: the same `(RunConfig,
//! seed)` pair renders byte-identical JSONL at any thread count, and the
//! FNV-1a fingerprint of that JSONL joins the golden conformance suite.
//!
//! Three layers:
//!
//! * [`MetricsSnapshot`] — counters, gauges, and fixed-bucket histograms
//!   keyed by [`MetricName`] (`&'static str` newtypes declared once in
//!   [`name::names`]). Storage is ordered (`BTreeMap`) and timestamps
//!   are sim-time only. Every metric, the pool's included, is derived
//!   from the events [`RunObserver::record`] sees: the runner is the one
//!   recording point.
//! * [`FlightRecorder`] — a bounded ring buffer of [`TraceEvent`]s that
//!   the runner dumps on panic and that `repro --trace` streams to JSONL
//!   with a stable versioned schema (see [`trace`]).
//! * [`ObsConfig`] — the switch on `RunConfig`. Off by default; when off
//!   the runner holds no observer at all, draws zero extra RNG values,
//!   and produces byte-identical reports to an un-instrumented build.

pub mod config;
pub mod name;
mod observer;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use config::ObsConfig;
pub use name::{names, EventName, MetricName};
pub use observer::{ObsReport, RunObserver};
pub use recorder::{FlightRecorder, TraceEvent, TraceKind};
pub use registry::{Histogram, HistogramSnapshot, MetricsSnapshot};
pub use trace::{fingerprint_hex, Fnv, TRACE_SCHEMA_VERSION};
