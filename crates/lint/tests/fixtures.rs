//! Fixture self-tests: run the linter over the known-bad tree under
//! `fixtures/tree` and assert exactly which (file, rule) pairs fire,
//! which are suppressed, and which known-bad-looking constructs are
//! correctly exempt.

use std::collections::BTreeSet;
use std::path::Path;

use clamshell_lint::lint_root;

fn fixture_root(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn findings(report: &clamshell_lint::LintReport) -> BTreeSet<(String, String)> {
    report.diagnostics.iter().map(|d| (d.file.clone(), d.rule.to_string())).collect()
}

fn count(report: &clamshell_lint::LintReport, file: &str, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.file == file && d.rule == rule).count()
}

fn suppressed_count(report: &clamshell_lint::LintReport, file: &str, rule: &str) -> usize {
    report.suppressed.iter().filter(|s| s.file == file && s.rule == rule).count()
}

#[test]
fn bad_tree_fires_every_rule() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let fired: BTreeSet<String> = report.diagnostics.iter().map(|d| d.rule.to_string()).collect();
    for rule in ["D001", "D002", "D003", "D004", "D005", "D006", "D007", "P001", "P002", "P003"] {
        assert!(fired.contains(rule), "expected {rule} to fire in fixtures/tree; fired: {fired:?}");
    }
}

#[test]
fn bad_tree_suppresses_every_suppressible_rule() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let seen: BTreeSet<String> = report.suppressed.iter().map(|s| s.rule.to_string()).collect();
    for rule in ["D001", "D002", "D003", "D004", "D005", "D006", "D007"] {
        assert!(seen.contains(rule), "expected a suppression witness for {rule}; saw: {seen:?}");
    }
}

#[test]
fn d001_hash_collections() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let f = "crates/core/src/d001.rs";
    assert_eq!(count(&report, f, "D001"), 1, "one un-suppressed HashMap use");
    assert_eq!(suppressed_count(&report, f, "D001"), 1, "one pragma-suppressed HashSet use");
}

#[test]
fn d002_wall_clock_fires_in_every_crate() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    assert_eq!(count(&report, "crates/core/src/d002.rs", "D002"), 1);
    assert_eq!(suppressed_count(&report, "crates/core/src/d002.rs", "D002"), 1);
    assert_eq!(
        count(&report, "crates/bench/src/timing.rs", "D002"),
        1,
        "crates/bench is under the wall-clock ban too"
    );
}

#[test]
fn d003_env_reads_respect_sanctioned_ingress() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    assert_eq!(count(&report, "crates/core/src/d003.rs", "D003"), 1);
    assert_eq!(suppressed_count(&report, "crates/core/src/d003.rs", "D003"), 1);
    assert_eq!(
        count(&report, "crates/sweep/src/threads.rs", "D003"),
        0,
        "sweep::threads is a sanctioned ingress point"
    );
}

#[test]
fn d004_cross_file_duplicate_is_reported_at_both_sites() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    // FIX_STREAM_A (core) and FIX_STREAM_B (crowd) both resolve to 0x00AB:
    // the duplicate must be reported at each call site, in each file.
    let dup_core: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "crates/core/src/d004_first.rs" && d.rule == "D004")
        .collect();
    let dup_crowd: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "crates/crowd/src/d004_second.rs" && d.rule == "D004")
        .collect();
    assert!(
        dup_core.iter().any(|d| d.message.contains("0xab") && d.message.contains("d004_second.rs")),
        "core site should name the crowd site as the other user of 0xab; got {dup_core:?}"
    );
    assert!(
        dup_crowd.iter().any(|d| d.message.contains("0xab") && d.message.contains("d004_first.rs")),
        "crowd site should name the core site as the other user of 0xab; got {dup_crowd:?}"
    );
}

#[test]
fn d004_dynamic_labels_fire_and_suppress() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    // d004_first.rs: duplicate (1) + dynamic fault_stream label (1) + dynamic fork label (1).
    assert_eq!(count(&report, "crates/core/src/d004_first.rs", "D004"), 3);
    // d004_second.rs: duplicate (1); the dynamic label there is pragma-suppressed
    // and the 0x00AC label is unique.
    assert_eq!(count(&report, "crates/crowd/src/d004_second.rs", "D004"), 1);
    assert_eq!(suppressed_count(&report, "crates/crowd/src/d004_second.rs", "D004"), 1);
}

#[test]
fn d007_name_hygiene() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let obs = "crates/obs/src/d007.rs";
    let core = "crates/core/src/d007_dup.rs";
    // obs fixture: one non-literal argument + one half of the cross-file
    // duplicate; the other dynamic-name site is pragma-suppressed.
    assert_eq!(count(&report, obs, "D007"), 2);
    assert_eq!(suppressed_count(&report, obs, "D007"), 1);
    // The duplicate fires at the partner site too, naming the obs site.
    assert_eq!(count(&report, core, "D007"), 1);
    let dup = report
        .diagnostics
        .iter()
        .find(|d| d.file == core && d.rule == "D007")
        .expect("duplicate diagnostic at the core site");
    assert!(dup.message.contains("fixture.dup"), "{}", dup.message);
    assert!(dup.message.contains("crates/obs/src/d007.rs"), "{}", dup.message);
}

#[test]
fn d005_unsafe_without_safety_comment() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let f = "crates/core/src/d005.rs";
    assert_eq!(count(&report, f, "D005"), 1, "only the uncommented unsafe block fires");
    assert_eq!(suppressed_count(&report, f, "D005"), 1);
}

#[test]
fn d006_hot_path_unwraps() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let runner = "crates/core/src/runner.rs";
    assert_eq!(count(&report, runner, "D006"), 2, "bare unwrap + expect; poison idiom exempt");
    assert_eq!(suppressed_count(&report, runner, "D006"), 1);
    assert_eq!(count(&report, "crates/sweep/src/pool.rs", "D006"), 1);
}

#[test]
fn pragma_hygiene_rules() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let f = "crates/core/src/pragmas.rs";
    assert_eq!(count(&report, f, "P001"), 2, "missing reason + wrong verb");
    assert_eq!(count(&report, f, "P002"), 1, "unknown rule id D999");
    assert_eq!(count(&report, f, "P003"), 1, "stale allow(D002) with nothing to suppress");
}

#[test]
fn test_sources_and_clean_files_stay_silent() {
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let fired = findings(&report);
    assert!(
        !fired.iter().any(|(f, _)| f == "crates/core/tests/integration.rs"),
        "integration tests may use hash collections"
    );
    assert!(
        !fired.iter().any(|(f, _)| f == "crates/quality/src/ok.rs"),
        "the clean file must not fire anything"
    );
}

#[test]
fn pool_lifecycle_fixture_covers_the_new_module() {
    // The production-pool module's determinism hazards: a hash-ordered
    // member map fires D001, a drained scratch set is suppressible, and
    // its RNG stream label (0x00AD) is unique tree-wide so D004 stays
    // quiet.
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let f = "crates/crowd/src/pool_lifecycle.rs";
    assert_eq!(count(&report, f, "D001"), 1, "HashMap member map must fire D001");
    assert_eq!(suppressed_count(&report, f, "D001"), 1, "drained scratch set is suppressed");
    assert_eq!(count(&report, f, "D004"), 0, "0x00AD is unique across the fixture tree");
}

#[test]
fn shard_fixture_covers_the_sharded_executor() {
    // The checkpoint/resume module's hazards: manifest parsing tempts
    // unwraps (hot-path, D006), shard knobs tempt env reads (D003 — the
    // shard module is not a sanctioned ingress point), and the mutex
    // poison idiom stays exempt.
    let report = lint_root(&fixture_root("tree")).expect("lint fixtures/tree");
    let f = "crates/sweep/src/shard.rs";
    assert_eq!(count(&report, f, "D006"), 1, "manifest-parse unwrap fires; poison idiom exempt");
    assert_eq!(suppressed_count(&report, f, "D006"), 1, "chain-verified expect is suppressed");
    assert_eq!(count(&report, f, "D003"), 1, "env-read shard knob fires D003");
}

#[test]
fn clean_tree_is_clean() {
    let report = lint_root(&fixture_root("clean")).expect("lint fixtures/clean");
    assert!(report.diagnostics.is_empty(), "unexpected findings: {:?}", report.diagnostics);
    assert!(report.suppressed.is_empty());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn warnonly_tree_has_warnings_but_no_errors() {
    let report = lint_root(&fixture_root("warnonly")).expect("lint fixtures/warnonly");
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1, "exactly the one D006 warning");
    assert_eq!(report.diagnostics[0].rule, "D006");
}
