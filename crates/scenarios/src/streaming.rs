//! Streaming golden-masters: committed [`StreamCheckpoint`] sequences
//! per `(scenario, seed)`.
//!
//! The streaming conformance suite replays the whole adversity catalog
//! in **streaming service mode** — open-loop arrivals, periodic
//! checkpoints, retire-at-every-boundary memory management — over the
//! same fixed workload as the compact-report suite. The intermediate
//! checkpoints are committed as
//! `crates/scenarios/golden/stream_checkpoints.json` and CI
//! byte-compares them under `CLAMSHELL_THREADS=1` and `=4`.
//!
//! This extends the golden contract in two directions at once:
//!
//! * **every adversity scenario composes with streaming** — churn,
//!   outages, bursts, spammers all run through the service loop, with
//!   retirement on, and their checkpoints are pinned;
//! * **intermediate state is pinned, not just the final report** — a
//!   drift that cancels out by run end (or hides in retired rows) still
//!   flips a mid-run checkpoint digest.
//!
//! Regenerate intentionally with:
//! `CLAMSHELL_BLESS=1 cargo test -p clamshell-scenarios --test stream_golden`

use crate::catalog;
use crate::suite;
use clamshell_stream::cells::run_jobs_streamed;
use clamshell_stream::{StreamCheckpoint, StreamConfig};

/// Golden-file key under `crates/scenarios/golden/`.
pub const GOLDEN_NAME: &str = "stream_checkpoints";

/// The suite's open-loop arrival rate (tasks per simulated second).
/// Reporting-only by the open-loop contract, but committed so the
/// `arrived`/`backlog` columns are pinned too.
pub const RATE: f64 = 1.5;

/// Checkpoint after at least this many completions per snapshot.
pub const CHECKPOINT_EVERY: usize = 4;

/// The suite's service-mode knobs: retirement is **on**, so the golden
/// run also proves bounded-memory mode under every adversity scenario.
pub fn stream_config() -> StreamConfig {
    StreamConfig { rate_per_sec: RATE, checkpoint_every: CHECKPOINT_EVERY, retire: true }
}

/// One streamed suite cell: the scenario, its seed, and every
/// checkpoint the run emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCell {
    /// Scenario name (catalog key).
    pub scenario: &'static str,
    /// The cell's seed.
    pub seed: u64,
    /// Emitted checkpoints, in sequence order.
    pub checkpoints: Vec<StreamCheckpoint>,
}

/// Run the catalog × [`suite::SEEDS`] grid in streaming mode and return
/// one [`StreamCell`] per cell in catalog × seed order. `threads = None`
/// resolves via `CLAMSHELL_THREADS` like every sweep entry point.
pub fn checkpoint_suite(threads: Option<usize>) -> Vec<StreamCell> {
    let g = catalog::grid(suite::base_config(), suite::population(), suite::specs(), suite::BATCH)
        .seeds(&suite::SEEDS);
    let jobs = g.jobs();
    let outcomes =
        run_jobs_streamed(jobs, clamshell_sweep::threads::resolve(threads), &stream_config());
    let names: Vec<&'static str> = catalog::catalog().iter().map(|s| s.name).collect();
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, (_, checkpoints))| StreamCell {
            scenario: names[i / suite::SEEDS.len()],
            seed: suite::SEEDS[i % suite::SEEDS.len()],
            checkpoints,
        })
        .collect()
}

/// Render suite cells as the committed file format: a JSON array with
/// one `{scenario, seed, ckpt}` object per line, one line per
/// checkpoint, in catalog × seed × sequence order.
pub fn render_cells(cells: &[StreamCell]) -> String {
    let mut rows: Vec<String> = Vec::new();
    for cell in cells {
        for c in &cell.checkpoints {
            let ckpt = serde_json::to_string(c).expect("checkpoint serializes");
            rows.push(format!(
                "{{\"scenario\":\"{}\",\"seed\":{},\"ckpt\":{}}}",
                cell.scenario, cell.seed, ckpt
            ));
        }
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(r);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_one_object_per_line() {
        let ckpt = StreamCheckpoint {
            seq: 0,
            at_ms: 10,
            arrived: 1,
            admitted: 2,
            completed: 2,
            backlog: 0,
            batches: 1,
            labels: 4,
            labels_correct: 4,
            assignments: 2,
            terminated: 0,
            cost_micro: 5,
            recruited: 3,
            evicted: 0,
            departed: 0,
            digest_tasks: 1,
            digest_assignments: 2,
            digest_batches: 3,
            obs_recorded: 0,
            obs_fingerprint: 0,
        };
        let cells = vec![
            StreamCell { scenario: "a", seed: 1, checkpoints: vec![ckpt.clone(), ckpt.clone()] },
            StreamCell { scenario: "b", seed: 2, checkpoints: vec![ckpt] },
        ];
        let text = render_cells(&cells);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "[");
        assert!(lines[1].starts_with("{\"scenario\":\"a\",\"seed\":1,") && lines[1].ends_with(','));
        assert!(
            lines[3].starts_with("{\"scenario\":\"b\",\"seed\":2,") && !lines[3].ends_with(',')
        );
        assert_eq!(lines[4], "]");
    }

    #[test]
    fn suite_config_retires() {
        assert!(stream_config().retire, "the golden suite must exercise bounded-memory mode");
    }
}
