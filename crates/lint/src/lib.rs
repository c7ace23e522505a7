//! # clamshell-lint
//!
//! A workspace determinism linter: the mechanical form of the
//! reproducibility contract described in ARCHITECTURE.md. Every result
//! this reproduction publishes rests on one invariant — a run is
//! bit-identical across thread counts and across fault-injection
//! toggles — and this crate rejects the code patterns that break it
//! *before* any simulation runs, instead of waiting for the
//! golden-master suite to notice downstream.
//!
//! ## Rule catalog
//!
//! | Rule | Severity | What it rejects |
//! |------|----------|-----------------|
//! | D001 | error    | `HashMap`/`HashSet` in deterministic library code |
//! | D002 | error    | `Instant::now` / `SystemTime::now` in library code |
//! | D003 | error    | `std::env` reads outside `sweep::threads` / `scenarios::golden` |
//! | D004 | error    | RNG stream labels that are not literals/consts, or collide |
//! | D005 | warning  | `unsafe` without a `// SAFETY:` comment |
//! | D006 | warning  | `unwrap()`/`expect()` in runner/sweep hot-path library code |
//! | D007 | error    | `MetricName`/`EventName` args that are not unique string literals |
//!
//! Violations are suppressible only with an inline, *reasoned* pragma —
//! `// clamshell-lint: allow(D004) -- why this is sound` — which the
//! tool records and summarizes. Malformed pragmas (`P001`), unknown
//! rule ids (`P002`), and pragmas that never fire (`P003`) are
//! themselves warnings, so the allowlist cannot rot silently.
//!
//! The linter is a std-only, dependency-free line/token scanner (no
//! `syn`), consistent with the workspace's offline vendored-crates
//! policy. Run it with `cargo run -p clamshell-lint -- --workspace`.

pub mod diag;
pub mod discover;
pub mod rules;
pub mod scan;

pub use diag::{Diagnostic, LintReport, Severity, Suppression};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint every workspace source under `root` (see
/// [`discover::discover`] for the scan set).
pub fn lint_root(root: &Path) -> io::Result<LintReport> {
    let specs = discover::discover(root)?;
    run(&specs)
}

/// Lint an explicit set of files, classified relative to `root`.
/// Relative paths are resolved against `root`; unclassifiable paths
/// (outside the workspace layout) are an error.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> io::Result<LintReport> {
    let mut specs = Vec::new();
    for given in paths {
        let p = if given.is_absolute() { given.clone() } else { root.join(given) };
        let spec = discover::classify(root, &p).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} is not a lintable workspace source (relative to {})",
                    p.display(),
                    root.display()
                ),
            )
        })?;
        specs.push(spec);
    }
    run(&specs)
}

fn run(specs: &[discover::SourceSpec]) -> io::Result<LintReport> {
    let mut engine = rules::Engine::new();
    for spec in specs {
        let src = fs::read_to_string(&spec.path)?;
        let scanned = scan::scan(&src, rules::SUPPRESSIBLE);
        engine.check_file(spec, &scanned);
    }
    Ok(engine.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::{FileKind, SourceSpec};
    use crate::rules::{Engine, SUPPRESSIBLE};

    /// Drive the engine over in-memory sources (path never read).
    pub(crate) fn lint_sources(files: &[(&str, &str)]) -> LintReport {
        let mut engine = Engine::new();
        for (rel, src) in files {
            let spec = spec_for(rel);
            let scanned = scan::scan(src, SUPPRESSIBLE);
            engine.check_file(&spec, &scanned);
        }
        engine.finalize()
    }

    fn spec_for(rel: &str) -> SourceSpec {
        let parts: Vec<&str> = rel.split('/').collect();
        let (crate_key, sub) = match parts.as_slice() {
            ["crates", name, sub, ..] => (name.to_string(), *sub),
            [sub, ..] => ("root".to_string(), *sub),
            [] => panic!("empty rel"),
        };
        let kind = match sub {
            "src" => FileKind::Lib,
            "tests" => FileKind::Tests,
            "benches" => FileKind::Benches,
            "examples" => FileKind::Examples,
            other => panic!("unknown subdir {other}"),
        };
        SourceSpec { path: PathBuf::from(rel), rel: rel.to_string(), crate_key, kind }
    }

    fn rules_of(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d001_fires_in_lib_not_in_tests() {
        let report = lint_sources(&[(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\n#[cfg(test)]\nmod t {\n    fn f() { let s: std::collections::HashSet<u8> = Default::default(); }\n}\n",
        )]);
        assert_eq!(rules_of(&report), vec!["D001"]);
    }

    #[test]
    fn d001_ignores_non_deterministic_crates() {
        let report = lint_sources(&[("crates/bench/src/x.rs", "use std::collections::HashMap;\n")]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn d002_fires_in_bench_crate() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        let report = lint_sources(&[("crates/sim/src/x.rs", bad)]);
        assert_eq!(rules_of(&report), vec!["D002"]);
        let report = lint_sources(&[("crates/bench/src/x.rs", bad)]);
        assert_eq!(rules_of(&report), vec!["D002"]);
    }

    #[test]
    fn d003_sanctions_the_two_ingress_points() {
        let bad = "fn f() { let v = std::env::var(\"X\"); }\n";
        let report = lint_sources(&[("crates/core/src/x.rs", bad)]);
        assert_eq!(rules_of(&report), vec!["D003"]);
        let report = lint_sources(&[("crates/sweep/src/threads.rs", bad)]);
        assert!(report.diagnostics.is_empty());
        let report = lint_sources(&[("crates/scenarios/src/golden.rs", bad)]);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn d004_cross_file_duplicate_labels() {
        let report = lint_sources(&[
            ("crates/core/src/a.rs", "fn f(s: u64) { fault_stream(s, 0xAB); }\n"),
            (
                "crates/crowd/src/b.rs",
                "const L: u64 = 0xAB;\nfn g(s: u64) { fault_stream(s, L); }\n",
            ),
        ]);
        let d004: Vec<_> = report.diagnostics.iter().filter(|d| d.rule == "D004").collect();
        assert_eq!(d004.len(), 2, "{:?}", report.diagnostics);
        assert!(d004[0].message.contains("0xab"), "{}", d004[0].message);
        assert!(d004[0].message.contains("crates/crowd/src/b.rs:2"), "{}", d004[0].message);
    }

    #[test]
    fn d004_unique_labels_are_clean() {
        let report = lint_sources(&[
            ("crates/core/src/a.rs", "fn f(s: u64) { fault_stream(s, 0xAB); }\n"),
            ("crates/crowd/src/b.rs", "fn g(s: u64) { fault_stream(s, 0xAC); }\n"),
        ]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn d004_dynamic_label_needs_pragma() {
        let report = lint_sources(&[(
            "crates/crowd/src/p.rs",
            "fn f(rng: &mut Rng, id: u32) { let r = rng.fork(id as u64); }\n",
        )]);
        assert_eq!(rules_of(&report), vec!["D004"]);
        let report = lint_sources(&[(
            "crates/crowd/src/p.rs",
            "fn f(rng: &mut Rng, id: u32) {\n    // clamshell-lint: allow(D004) -- per-worker fork namespaced by parent\n    let r = rng.fork(id as u64);\n}\n",
        )]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed.len(), 1);
    }

    #[test]
    fn d007_requires_same_line_string_literals() {
        let report = lint_sources(&[(
            "crates/obs/src/x.rs",
            "pub fn named(n: &'static str) -> MetricName { MetricName(n) }\n",
        )]);
        assert_eq!(rules_of(&report), vec!["D007"]);
        let report = lint_sources(&[(
            "crates/obs/src/x.rs",
            "pub const A: MetricName = MetricName(\"pool.join\");\n",
        )]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn d007_cross_file_duplicates_pool_metrics_and_events() {
        let report = lint_sources(&[
            ("crates/obs/src/a.rs", "pub const A: MetricName = MetricName(\"runner.walkout\");\n"),
            ("crates/core/src/b.rs", "pub const B: EventName = EventName(\"runner.walkout\");\n"),
        ]);
        let d007: Vec<_> = report.diagnostics.iter().filter(|d| d.rule == "D007").collect();
        assert_eq!(d007.len(), 2, "{:?}", report.diagnostics);
        assert!(d007[0].message.contains("runner.walkout"), "{}", d007[0].message);
        assert!(d007[0].message.contains("crates/obs/src/a.rs:1"), "{}", d007[0].message);
    }

    #[test]
    fn d007_dynamic_name_needs_pragma() {
        let report = lint_sources(&[(
            "crates/obs/src/x.rs",
            "// clamshell-lint: allow(D007) -- adapter maps foreign names at the boundary\npub fn named(n: &'static str) -> EventName { EventName(n) }\n",
        )]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed.len(), 1);
    }

    #[test]
    fn d006_exempts_lock_poison_idiom() {
        let src = "fn f(m: &std::sync::Mutex<u32>, o: Option<u32>) -> u32 {\n    let a = *m.lock().unwrap();\n    a + o.unwrap()\n}\n";
        let report = lint_sources(&[("crates/sweep/src/pool.rs", src)]);
        assert_eq!(rules_of(&report), vec!["D006"]);
        assert_eq!(report.diagnostics[0].line, 3);
    }

    #[test]
    fn unused_pragma_warns() {
        let report = lint_sources(&[(
            "crates/core/src/x.rs",
            "// clamshell-lint: allow(D001) -- nothing here\nfn f() {}\n",
        )]);
        assert_eq!(rules_of(&report), vec!["P003"]);
    }
}
