//! Deterministic plain-text rendering of a checkpoint sequence, one
//! line at a time so a caller prints each row as the engine emits it.
//!
//! Shared by `repro serve` and the `streaming_dashboard` example so the
//! CLI walkthrough in the README, the example's output, and the CI
//! byte-compare all draw the same table. Everything rendered is an
//! integer (millisecond times, micro-dollar cost, hex fingerprints), so
//! the output is byte-stable across platforms and thread counts.

use crate::checkpoint::StreamCheckpoint;
use clamshell_obs::fingerprint_hex;

/// The table's header line (no trailing newline), aligned with [`row`].
pub fn header() -> String {
    format!(
        "{:>4} {:>9} {:>8} {:>9} {:>10} {:>8} {:>8} {:>7} {:>11}  task_digest",
        "seq",
        "t_ms",
        "arrived",
        "admitted",
        "completed",
        "backlog",
        "batches",
        "workers",
        "cost_micro"
    )
}

/// One fixed-width table line (no trailing newline) for checkpoint `c`.
pub fn row(c: &StreamCheckpoint) -> String {
    format!(
        "{:>4} {:>9} {:>8} {:>9} {:>10} {:>8} {:>8} {:>7} {:>11}  {}",
        c.seq,
        c.at_ms,
        c.arrived,
        c.admitted,
        c.completed,
        c.backlog,
        c.batches,
        c.recruited,
        c.cost_micro,
        fingerprint_hex(c.digest_tasks)
    )
}

/// One-line summary of a finished stream from its final checkpoint `c`
/// (the table's closing line in `repro serve` output).
pub fn summary(c: &StreamCheckpoint) -> String {
    format!(
        "stream: {} tasks in {} batches over {} ms, {} labels ({} correct), \
         cost {} micro-usd, final backlog {}",
        c.completed, c.batches, c.at_ms, c.labels, c.labels_correct, c.cost_micro, c.backlog
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(seq: u64) -> StreamCheckpoint {
        StreamCheckpoint {
            seq,
            at_ms: 1000 * (seq + 1),
            arrived: 10 * (seq + 1),
            admitted: 8 * (seq + 1),
            completed: 8 * (seq + 1),
            backlog: 2 * (seq + 1),
            batches: seq + 1,
            labels: 16 * (seq + 1),
            labels_correct: 15 * (seq + 1),
            assignments: 9 * (seq + 1),
            terminated: seq,
            cost_micro: 100_000 * (seq + 1),
            recruited: 5,
            evicted: 0,
            departed: 0,
            digest_tasks: 0xDEAD_BEEF,
            digest_assignments: 1,
            digest_batches: 2,
            obs_recorded: 0,
            obs_fingerprint: 0,
        }
    }

    #[test]
    fn header_and_rows_are_single_aligned_lines() {
        let lines = [header(), row(&ckpt(0)), row(&ckpt(1))];
        assert!(lines.iter().all(|l| !l.contains('\n')));
        assert!(lines[0].contains("seq") && lines[0].contains("task_digest"));
        assert!(lines[1].contains("fnv1a:00000000deadbeef"));
        // Fixed-width: data rows align with the header.
        assert_eq!(lines[0].find("task_digest"), lines[1].find("fnv1a"));
        assert_eq!(lines[1].find("fnv1a"), lines[2].find("fnv1a"));
    }

    #[test]
    fn summary_reports_the_final_checkpoint() {
        let s = summary(&ckpt(3));
        assert!(s.contains("32 tasks in 4 batches"), "{s}");
    }
}
