//! The `repro` command line's error edge: a bad flag value ends the
//! program with exit code 2 and a one-line message on stderr, never a
//! panic (exit 101 and a backtrace hint). Every case here is rejected
//! while parsing, before any experiment runs.

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
