//! Scenario mode's bytes, pinned end to end through the `repro` binary.
//!
//! `repro --scenario churn --scenario blackout --quick --seeds 3` runs
//! twice: as text with `--trace`, and with `--format json`. The byte
//! length and FNV-1a of each stdout and of the trace file must match
//! `crates/scenarios/golden/scenario_mode_fnv.json`. Naming two
//! scenarios walks the several-names path, where each name runs its own
//! benign baseline, so this pins the table means, the JSON document and
//! every trace byte in job order.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-bench --test scenario_golden`

use clamshell_obs::{fingerprint_hex, Fnv};
use clamshell_scenarios::golden;
use std::process::Command;

/// Golden-file key for the scenario-mode digests.
const GOLDEN: &str = "scenario_mode_fnv";

/// The scenario-mode invocation both runs share.
const ARGS: [&str; 7] =
    ["--scenario", "churn", "--scenario", "blackout", "--quick", "--seeds", "3"];

/// Run `repro` with [`ARGS`] plus `extra`, require success, and return
/// its stdout.
fn repro(extra: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(ARGS)
        .args(extra)
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

/// One golden row: an output's name, byte length and FNV-1a.
fn digest(output: &str, bytes: &[u8]) -> String {
    let mut h = Fnv::new();
    h.write(bytes);
    format!(
        "{{\"output\":\"{output}\",\"bytes\":{},\"fnv\":\"{}\"}}",
        bytes.len(),
        fingerprint_hex(h.finish())
    )
}

#[test]
fn scenario_mode_output_bytes_are_pinned() {
    let path = std::env::temp_dir()
        .join(format!("clamshell_scenario_golden_{}.jsonl", std::process::id()));
    let text = repro(&["--trace", path.to_str().expect("temp path is UTF-8")]);
    let trace = std::fs::read(&path).expect("repro wrote the trace file");
    let _ = std::fs::remove_file(&path);
    let json = repro(&["--format", "json"]);
    assert!(!trace.is_empty() && !json.is_empty());
    let rows =
        [digest("text_stdout", &text), digest("trace_jsonl", &trace), digest("json_stdout", &json)];
    golden::check(GOLDEN, &golden::render_lines(rows));
}
