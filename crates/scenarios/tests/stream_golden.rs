//! The streaming golden-master conformance suite.
//!
//! Every catalog scenario runs in streaming service mode (open-loop
//! arrivals, retirement at every batch boundary) over the fixed suite
//! workload, and the full checkpoint sequences must match the committed
//! `crates/scenarios/golden/stream_checkpoints.json` **byte for byte**.
//! CI runs this under `CLAMSHELL_THREADS=1` and `=4`.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test stream_golden`

use clamshell_scenarios::{golden, streaming, suite};

#[test]
fn stream_golden_master_conformance() {
    let cells = streaming::checkpoint_suite(None);
    assert_eq!(cells.len(), clamshell_scenarios::catalog().len() * suite::SEEDS.len());
    for cell in &cells {
        assert!(
            !cell.checkpoints.is_empty(),
            "{}/{}: the final boundary always checkpoints",
            cell.scenario,
            cell.seed
        );
    }
    golden::check(streaming::GOLDEN_NAME, &streaming::render_cells(&cells));
}

#[test]
fn stream_suite_is_byte_identical_across_thread_counts() {
    let render_all =
        |threads: usize| streaming::render_cells(&streaming::checkpoint_suite(Some(threads)));
    assert_eq!(render_all(1), render_all(4));
}

#[test]
fn streamed_suite_composes_with_every_adversity_regime() {
    // The streamed cells must show the same fault signatures the
    // compact-report suite pins: churn walks workers out, blackout
    // stretches the clock, every scenario completes every task.
    let cells = streaming::checkpoint_suite(None);
    let last = |name: &str| {
        cells
            .iter()
            .filter(|c| c.scenario == name)
            .map(|c| c.checkpoints.last().expect("non-empty").clone())
            .collect::<Vec<_>>()
    };
    for cell in &cells {
        let fin = cell.checkpoints.last().expect("non-empty");
        assert_eq!(
            fin.completed,
            suite::N_TASKS as u64,
            "{}/{} must complete every task",
            cell.scenario,
            cell.seed
        );
        assert_eq!(fin.labels, (suite::N_TASKS * suite::NG) as u64);
        // Checkpoint sequences are cumulative and monotone.
        for w in cell.checkpoints.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].completed < w[1].completed);
            assert!(w[0].at_ms <= w[1].at_ms);
            assert!(w[0].cost_micro <= w[1].cost_micro);
        }
    }
    assert!(last("churn").iter().any(|c| c.departed > 0), "churn must show walkouts");
    for c in last("benign") {
        assert_eq!(c.departed, 0, "benign runs never churn");
    }
    let mean_ms = |rows: &[clamshell_stream::StreamCheckpoint]| {
        rows.iter().map(|c| c.at_ms).sum::<u64>() / rows.len() as u64
    };
    assert!(
        mean_ms(&last("blackout")) > mean_ms(&last("benign")),
        "outages must stretch the streamed run"
    );
}
