//! The `repro` command line's error edge: a bad flag value ends the
//! program with exit code 2 and a one-line message on stderr, never a
//! panic (exit 101 and a backtrace hint). Most cases are rejected while
//! parsing, before any experiment runs; the rest fail once the run
//! starts (an unknown scenario name, a trace file that cannot be
//! written).

use std::process::Command;

fn assert_rejected(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr:?}");
    assert_eq!(stderr, format!("{message}\n"), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs, so nothing prints");
}

#[test]
fn zero_seeds_is_rejected_for_an_experiment() {
    assert_rejected(&["fig9", "--quick", "--seeds", "0"], "--seeds takes a positive count");
}

#[test]
fn zero_seeds_is_rejected_for_a_scenario() {
    assert_rejected(&["--scenario", "churn", "--seeds", "0"], "--seeds takes a positive count");
}

#[test]
fn unparsable_seeds_is_rejected() {
    assert_rejected(&["--seeds", "x"], "--seeds takes a positive count");
    assert_rejected(&["--seeds"], "--seeds takes a positive count");
}

#[test]
fn non_positive_serve_rate_is_rejected() {
    assert_rejected(&["serve", "--rate", "-1"], "--rate must be positive");
    assert_rejected(&["serve", "--rate", "0"], "--rate must be positive");
}

#[test]
fn zero_checkpoint_cadence_is_rejected() {
    assert_rejected(
        &["serve", "--checkpoint-every", "0"],
        "--checkpoint-every takes a positive count",
    );
}

#[test]
fn zero_counts_are_rejected() {
    assert_rejected(&["serve", "--tasks", "0"], "--tasks takes a positive count");
    assert_rejected(&["megasweep", "--cells", "0"], "--cells takes a positive count");
    assert_rejected(&["megasweep", "--shard-size", "0"], "--shard-size takes a positive count");
}

/// Run `repro` on arguments that parse but fail once the run starts:
/// it exits 2 and the last stderr line is `message`.
fn assert_fails_at_run(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr:?}");
    assert_eq!(stderr.lines().last(), Some(message), "{args:?}");
}

#[test]
fn unknown_scenario_names_get_the_list_hint() {
    let hint = "unknown scenario: nope; try --scenario list";
    assert_fails_at_run(&["--scenario", "nope", "--quick"], hint);
    assert_fails_at_run(&["serve", "--scenario", "nope", "--quick"], hint);
}

#[test]
fn trace_io_errors_print_without_the_list_hint() {
    assert_fails_at_run(
        &["--scenario", "churn", "--quick", "--trace", "/dev/full"],
        "cannot write trace: No space left on device (os error 28)",
    );
    let missing = format!("{}/no-such-dir/t.jsonl", env!("CARGO_TARGET_TMPDIR"));
    assert_fails_at_run(
        &["--scenario", "churn", "--quick", "--trace", &missing],
        &format!("cannot create trace file {missing}: No such file or directory (os error 2)"),
    );
}
