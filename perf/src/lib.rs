//! # clamshell-perf
//!
//! The benchmark every performance claim about the CLAMShell
//! reproduction is measured with. Two binaries share this library:
//!
//! * `perf` measures the end-to-end metrics of four closed-loop
//!   workloads (`paper`, `megasweep`, `serve`, `traced`) at 1 and 2
//!   sweep threads, one fresh child process per repetition, and checks
//!   every repetition's output digest (`perf run`); it also compares two
//!   result sets (`perf compare`).
//! * `layers` is the separate traced run: it carries the counting
//!   allocator, times the harness's calls into each layer, and reads
//!   exact work counts from the layers' public outputs.
//!
//! See `perf/README.md` for the commands, the workloads and the
//! layer-to-metric table.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod host;
pub mod json;
pub mod layers;
pub mod span;
pub mod workload;
