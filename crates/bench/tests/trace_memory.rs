//! Bounded-memory conformance for the scenario-mode trace export:
//! `repro --scenario … --trace` holds one cell at a time, not the run.
//!
//! Scenario mode streams its cells through the sweep engine's ordered
//! sink, reducing each report to the table's scalars and its rendered
//! trace section before dropping it. So at one thread, eight times the
//! seeds may raise peak live heap only by allocator noise and the
//! per-cell scalars, never by the retained reports and event logs that
//! grow with the seed count.
//!
//! The test binary owns the process-global allocator, so it lives alone
//! in this integration-test file and runs its cases from a single test.

use clamshell_bench::experiments::adversity::scenario_mode;
use clamshell_bench::util::Opts;

#[path = "../../../tests/support/live_alloc.rs"]
mod live_alloc;

use live_alloc::{peak_growth, LiveAlloc};

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

/// Peak live-byte growth of `--scenario churn --trace` over `seeds`
/// seeds on one sweep thread, at full scale.
fn traced_peak(seeds: u64) -> u64 {
    let opts = Opts { seeds: (1..=seeds).collect(), scale: 1.0, threads: Some(1) };
    let names = vec!["churn".to_string()];
    let path = std::env::temp_dir()
        .join(format!("clamshell_trace_memory_{seeds}_{}.jsonl", std::process::id()));
    let (out, peak) = peak_growth(|| scenario_mode(&opts, &names, false, Some(&path)));
    out.expect("churn is a catalog scenario and the trace file is writable");
    let _ = std::fs::remove_file(&path);
    peak
}

#[test]
fn traced_peak_memory_does_not_grow_with_seeds() {
    // Warm-up: fault the lazy population tables, stdout's buffer and the
    // allocator arenas so no measured run pays first-touch costs.
    let _ = traced_peak(4);

    let small = traced_peak(16);
    let large = traced_peak(128);
    eprintln!("peak live bytes of a traced churn run: 16 seeds = {small}, 128 seeds = {large}");
    assert!(small > 0, "the counting allocator must observe the run");
    assert!(
        large as f64 <= small as f64 * 1.25,
        "traced peak grew with the seeds: 16 seeds={small}B, 128 seeds={large}B"
    );
}
