//! Trace golden-masters: committed flight-recorder fingerprints per
//! `(scenario, seed)`.
//!
//! The conformance suite replays the whole catalog with observability
//! enabled (a lossless ring, so nothing is dropped) and digests each
//! cell's rendered JSONL trace into a [`TraceRow`]. The rows are
//! committed as `crates/scenarios/golden/trace_fingerprints.json` and CI
//! byte-compares them under `CLAMSHELL_THREADS=1` and `=4`: a trace
//! fingerprint pins down the *order and content of every recorded
//! runner event*, which is a strictly finer determinism check than the
//! compact-report fingerprint (that only digests the final logs).
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test trace_golden`

use crate::catalog;
use crate::golden;
use crate::suite;
use clamshell_core::RunConfig;
use clamshell_obs::{fingerprint_hex, MetricsSnapshot, ObsConfig};
use clamshell_sim::json;

/// Golden-file key under `crates/scenarios/golden/`.
pub const GOLDEN_NAME: &str = "trace_fingerprints";

/// Ring capacity for the suite: large enough that no suite run ever
/// drops an event, so the fingerprint covers the complete record.
pub const TRACE_RING: usize = 1 << 16;

/// Scalar digest of one instrumented `(scenario, seed)` trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRow {
    /// Scenario name (catalog key).
    pub scenario: String,
    /// The cell's seed.
    pub seed: u64,
    /// Events retained in the ring at drain.
    pub events: usize,
    /// Events ever recorded.
    pub recorded: u64,
    /// Events evicted by ring wrap (must be 0 for the suite).
    pub dropped: u64,
    /// `fnv1a:<16 hex>` over the rendered JSONL event lines.
    pub fingerprint: String,
}

clamshell_sim::json_struct!(TraceRow { scenario, seed, events, recorded, dropped, fingerprint });

/// One instrumented suite cell: the committed digest plus the full
/// rendered JSONL (header + events), which the byte-identity tests
/// compare across thread counts but which is never committed.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// The committed digest row.
    pub row: TraceRow,
    /// Rendered JSONL trace (header line + one line per event).
    pub jsonl: String,
    /// The run's metrics registry (`ObsReport::metrics`), pinned by
    /// digest in `trace_metrics_fnv.json`.
    pub metrics: MetricsSnapshot,
}

/// The suite's base config with observability on and a lossless ring.
pub fn obs_base_config() -> RunConfig {
    RunConfig { obs: ObsConfig::with_ring(TRACE_RING), ..suite::base_config() }
}

/// Run the instrumented catalog × [`suite::SEEDS`] grid and return one
/// [`TraceCell`] per cell, grouped per scenario in catalog order.
pub fn trace_suite(threads: Option<usize>) -> Vec<(&'static str, Vec<TraceCell>)> {
    let g = catalog::grid(obs_base_config(), suite::population(), suite::specs(), suite::BATCH)
        .seeds(&suite::SEEDS);
    let reports = g.try_run_all(threads).expect("catalog grid is valid");
    let mut rows: Vec<(&'static str, Vec<TraceCell>)> =
        catalog::catalog().iter().map(|s| (s.name, Vec::new())).collect();
    for (i, report) in reports.into_iter().enumerate() {
        let scenario = i / suite::SEEDS.len();
        let seed = suite::SEEDS[i % suite::SEEDS.len()];
        let name = rows[scenario].0;
        let obs = report.obs.as_ref().expect("suite runs are instrumented");
        let cell = TraceCell {
            row: TraceRow {
                scenario: name.to_string(),
                seed,
                events: obs.events.len(),
                recorded: obs.recorded,
                dropped: obs.dropped,
                fingerprint: fingerprint_hex(obs.fingerprint),
            },
            jsonl: obs.render_jsonl(name, seed),
            metrics: obs.metrics.clone(),
        };
        rows[scenario].1.push(cell);
    }
    rows
}

/// Render the suite's digest rows as the committed file format: a JSON
/// array with one object per line, in catalog × seed order.
pub fn render_rows(rows: &[(&'static str, Vec<TraceCell>)]) -> String {
    golden::render_lines(
        rows.iter().flat_map(|(_, cells)| cells.iter().map(|c| json::to_string(&c.row))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_base_only_adds_observability() {
        let plain = suite::base_config();
        let obs = obs_base_config();
        assert!(obs.obs.enabled);
        assert_eq!(obs.obs.ring_capacity, TRACE_RING);
        assert_eq!(RunConfig { obs: plain.obs, ..obs }, plain);
    }

    #[test]
    fn render_rows_is_one_object_per_line() {
        let cell = |s: &str, seed: u64| TraceCell {
            row: TraceRow {
                scenario: s.to_string(),
                seed,
                events: 3,
                recorded: 3,
                dropped: 0,
                fingerprint: "fnv1a:0000000000000000".to_string(),
            },
            jsonl: String::new(),
            metrics: MetricsSnapshot::default(),
        };
        let rows = vec![("a", vec![cell("a", 1), cell("a", 2)]), ("b", vec![cell("b", 1)])];
        let text = render_rows(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "[");
        assert!(lines[1].contains("\"scenario\":\"a\"") && lines[1].ends_with(','));
        assert!(lines[3].contains("\"scenario\":\"b\"") && !lines[3].ends_with(','));
        assert_eq!(lines[4], "]");
    }
}
