//! The exact-count gate: every count-type per-layer metric at seed 1
//! must match `perf/counts.json` byte for byte. The counts are work done
//! (retrains, cells, bytes checkpointed, allocations per task...), not
//! times, so a change that adds work fails here deterministically, even
//! on one core.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test --release --manifest-path perf/Cargo.toml --test counts`

use std::path::Path;
use std::process::Command;

fn blessing() -> bool {
    std::env::var("CLAMSHELL_BLESS").map(|v| !v.is_empty()).unwrap_or(false)
}

/// `layers counts --seed 1` with the sweep engine at `threads` threads.
fn counts(threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_layers"))
        .args(["counts", "--seed", "1"])
        .env("CLAMSHELL_THREADS", threads)
        .output()
        .expect("run the layers binary");
    assert!(
        out.status.success(),
        "layers counts failed at {threads} threads:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("counts are UTF-8")
}

#[test]
fn exact_counts_match_the_committed_file() {
    let rendered = counts("1");
    assert_eq!(counts("2"), rendered, "the counts depend on the thread count");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("counts.json");
    if blessing() {
        std::fs::write(&path, &rendered).expect("write counts.json");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read counts.json");
    if committed != rendered {
        let drifted: Vec<String> = rendered
            .lines()
            .zip(committed.lines())
            .filter(|(new, old)| new != old)
            .map(|(new, old)| format!("{} -> {}", old.trim(), new.trim()))
            .collect();
        panic!(
            "exact counts drifted from counts.json (regenerate intentionally with \
             CLAMSHELL_BLESS=1):\n  {}",
            if drifted.is_empty() { "line count changed".into() } else { drifted.join("\n  ") }
        );
    }
}
