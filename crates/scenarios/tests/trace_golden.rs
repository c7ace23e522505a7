//! Trace golden-master conformance.
//!
//! The instrumented catalog suite must reproduce the committed trace
//! fingerprints (`crates/scenarios/golden/trace_fingerprints.json`)
//! byte for byte, the FNV-1a of every cell's rendered JSONL must match
//! `crates/scenarios/golden/trace_jsonl_fnv.json` (the fingerprints hash
//! structured fields, so only this file pins the renderer's bytes), the
//! FNV-1a of every cell's serialized metrics registry must match
//! `crates/scenarios/golden/trace_metrics_fnv.json`, the
//! JSONL must be identical at 1 and 4 sweep threads, and turning
//! observability on must leave the compact-report goldens untouched —
//! the zero-perturbation half of the contract.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test trace_golden`

use clamshell_obs::{fingerprint_hex, Fnv};
use clamshell_scenarios::{golden, suite, trace};
use clamshell_sim::json;

/// Golden-file key for the rendered-bytes digests.
const JSONL_GOLDEN: &str = "trace_jsonl_fnv";

/// Golden-file key for the metrics-registry digests.
const METRICS_GOLDEN: &str = "trace_metrics_fnv";

#[test]
fn trace_fingerprint_conformance() {
    let rows = trace::trace_suite(None);
    assert_eq!(rows.len(), clamshell_scenarios::catalog().len());
    for (name, cells) in &rows {
        assert_eq!(cells.len(), suite::SEEDS.len());
        for cell in cells {
            assert_eq!(cell.row.dropped, 0, "{name}: suite ring must be lossless");
            assert!(cell.row.events > 0, "{name}: instrumented runs record events");
            assert!(
                cell.jsonl.lines().count() == cell.row.events + 1,
                "{name}: JSONL is one header plus one line per event"
            );
        }
    }
    golden::check(trace::GOLDEN_NAME, &trace::render_rows(&rows));
}

#[test]
fn trace_jsonl_bytes_are_pinned() {
    // One line per cell: the length and FNV-1a of its full rendered
    // JSONL section (header + events), so any drift in the renderer's
    // bytes fails here even when the structured fingerprints agree.
    let lines: Vec<String> = trace::trace_suite(None)
        .iter()
        .flat_map(|(name, cells)| {
            cells.iter().map(move |c| {
                let mut h = Fnv::new();
                h.write(c.jsonl.as_bytes());
                format!(
                    "{{\"scenario\":\"{name}\",\"seed\":{},\"bytes\":{},\"jsonl\":\"{}\"}}",
                    c.row.seed,
                    c.jsonl.len(),
                    fingerprint_hex(h.finish())
                )
            })
        })
        .collect();
    golden::check(JSONL_GOLDEN, &golden::render_lines(lines));
}

#[test]
fn trace_metrics_are_pinned() {
    // One line per cell: the length and FNV-1a of its serialized
    // `ObsReport.metrics`. The trace goldens hash events only, so this
    // is what pins the metrics: every counter, gauge and
    // histogram bucket, including the pool metrics.
    let lines: Vec<String> = trace::trace_suite(None)
        .iter()
        .flat_map(|(name, cells)| {
            cells.iter().map(move |c| {
                let json = json::to_string(&c.metrics);
                let mut h = Fnv::new();
                h.write(json.as_bytes());
                format!(
                    "{{\"scenario\":\"{name}\",\"seed\":{},\"bytes\":{},\"metrics\":\"{}\"}}",
                    c.row.seed,
                    json.len(),
                    fingerprint_hex(h.finish())
                )
            })
        })
        .collect();
    golden::check(METRICS_GOLDEN, &golden::render_lines(lines));
}

#[test]
fn trace_jsonl_is_byte_identical_across_thread_counts() {
    // The in-test version of the CI matrix: every cell's full JSONL
    // (header + events) at 1 and 4 sweep threads must agree byte for
    // byte — not just the fingerprints.
    let render_all = |threads: usize| {
        trace::trace_suite(Some(threads))
            .iter()
            .flat_map(|(name, cells)| {
                cells.iter().map(move |c| format!("## {name}/{}\n{}", c.row.seed, c.jsonl))
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render_all(1), render_all(4));
}

#[test]
fn instrumentation_leaves_compact_goldens_untouched() {
    // Running the suite with observability on must reproduce the exact
    // committed compact snapshots: recording draws no RNG values and
    // never perturbs the simulation.
    let rows = suite::compact_suite_with(trace::obs_base_config(), None);
    let mut mismatches = Vec::new();
    for (name, reports) in &rows {
        let rendered = golden::render(reports);
        match golden::read(name) {
            Some(committed) if committed == rendered => {}
            Some(_) => mismatches.push(format!("{name}: instrumented run drifted")),
            None => mismatches.push(format!("{name}: no committed snapshot")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "observability perturbed the simulation:\n  {}",
        mismatches.join("\n  ")
    );
}
