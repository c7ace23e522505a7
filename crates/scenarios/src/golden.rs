//! Golden-master storage: committed snapshots under
//! `crates/scenarios/golden/`, one JSON file per scenario.
//!
//! The conformance suite (`tests/golden.rs`) renders the current
//! [`CompactReport`]s and requires **byte
//! equality** with the committed files — under `CLAMSHELL_THREADS=1`
//! and `=4` in CI, which is what extends the determinism contract to
//! every scenario. Regenerate intentionally with:
//!
//! ```text
//! CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test golden
//! ```

use crate::report::CompactReport;
use clamshell_sim::json;
use std::path::{Path, PathBuf};

/// The committed snapshot directory.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Snapshot path for one scenario.
pub fn golden_path(scenario: &str) -> PathBuf {
    golden_dir().join(format!("{scenario}.json"))
}

/// The committed file format of every golden: a JSON array with one
/// object per line (stable, diffable), `[`, the rows joined by `,` and
/// a newline, then `]`.
pub fn render_lines<S: AsRef<str>>(rows: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[\n");
    let mut rows = rows.into_iter();
    if let Some(first) = rows.next() {
        out.push_str(first.as_ref());
        for row in rows {
            out.push_str(",\n");
            out.push_str(row.as_ref());
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Render a scenario's per-seed snapshots as the committed file format.
pub fn render(reports: &[CompactReport]) -> String {
    render_lines(reports.iter().map(json::to_string))
}

/// Read a scenario's committed snapshot, if present.
pub fn read(scenario: &str) -> Option<String> {
    std::fs::read_to_string(golden_path(scenario)).ok()
}

/// Overwrite a scenario's committed snapshot (the bless path).
pub fn bless(scenario: &str, content: &str) {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create golden dir");
    std::fs::write(golden_path(scenario), content).expect("write golden file");
}

/// Whether this test run should regenerate snapshots instead of
/// comparing (`CLAMSHELL_BLESS` set to anything non-empty).
pub fn blessing() -> bool {
    std::env::var("CLAMSHELL_BLESS").map(|v| !v.is_empty()).unwrap_or(false)
}

/// Require `rendered` to equal the committed file `name` byte for byte,
/// or overwrite the file when [`blessing`]. Panics on drift, naming the
/// first line that differs, and when no file is committed.
pub fn check(name: &str, rendered: &str) {
    if blessing() {
        bless(name, rendered);
        return;
    }
    let Some(committed) = read(name) else {
        panic!("no committed golden {name}.json (bless with CLAMSHELL_BLESS=1)");
    };
    if committed != rendered {
        let (a, b) = (committed.lines().count(), rendered.lines().count());
        let line = committed.lines().zip(rendered.lines()).position(|(x, y)| x != y);
        panic!(
            "golden {name}.json drifted at line {} ({a} committed lines, {b} now; \
             regenerate intentionally with CLAMSHELL_BLESS=1)",
            line.unwrap_or(a.min(b)) + 1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_one_object_per_line() {
        let r = CompactReport {
            scenario: "x".into(),
            seed: 1,
            tasks: 2,
            batches: 1,
            labels: 4,
            labels_correct: 3,
            total_ms: 1000,
            cost_micro: 42,
            workers_recruited: 3,
            workers_evicted: 0,
            workers_departed: 0,
            assignments: 2,
            terminated: 0,
            fingerprint: 7,
        };
        let text = render(&[r.clone(), r]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "[");
        assert!(lines[1].ends_with(','));
        assert_eq!(lines[3], "]");
        assert!(text.ends_with("]\n"));
    }

    #[test]
    fn render_lines_frames_rows() {
        assert_eq!(render_lines(Vec::<String>::new()), "[\n]\n");
        assert_eq!(render_lines(["{}"]), "[\n{}\n]\n");
        assert_eq!(render_lines(["{\"a\":1}", "{}"]), "[\n{\"a\":1},\n{}\n]\n");
    }

    #[test]
    fn paths_land_inside_the_crate() {
        let p = golden_path("benign");
        assert!(p.ends_with("golden/benign.json"));
        assert!(p.starts_with(env!("CARGO_MANIFEST_DIR")));
    }
}
