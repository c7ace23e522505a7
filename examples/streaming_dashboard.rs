//! Streaming service mode end to end: an open-loop task stream runs
//! through the real streaming engine (`clamshell::stream`), completed
//! state retires at every batch boundary so memory stays bounded, and
//! each periodic checkpoint prints as a live dashboard row. The closing
//! lines replay the same workload batched and verify the bit-for-bit
//! equivalence contract on the spot.
//!
//! ```text
//! cargo run --release --example streaming_dashboard
//! ```

use clamshell::prelude::*;
use clamshell::stream::{dashboard, source};

fn main() {
    let cfg = RunConfig { pool_size: 12, ng: 1, n_classes: 2, seed: 23, ..Default::default() }
        .with_straggler()
        .with_maintenance();
    let n_tasks = 60;
    let batch_size = 12;

    // Open-loop service knobs: arrivals at 0.05 tasks per simulated
    // second (reporting-only — they never gate admission), a checkpoint
    // every 12 completions, and retirement on, so the engine holds one
    // batch of live state no matter how long the stream runs.
    let knobs = StreamConfig { rate_per_sec: 0.05, checkpoint_every: 12, retire: true };

    // The source is an *unbounded* iterator; the engine admits exactly
    // `n_tasks` from it in deterministic batch-sized chunks and hands
    // each checkpoint to the sink, which prints its row right away.
    println!("streaming dashboard ({n_tasks} tasks, retire-mode):\n");
    println!("{}", dashboard::header());
    let outcome = run_stream_with(
        cfg.clone(),
        Population::mturk_live(),
        source::alternating(1),
        n_tasks,
        batch_size,
        &knobs,
        |c| println!("{}", dashboard::row(c)),
    );
    println!("{}", dashboard::summary(outcome.checkpoints.last()));
    assert!(outcome.report.tasks.is_empty(), "retired rows live only in the digest");

    // The equivalence witness: a batched run over the same spec prefix
    // folds to the same three digests the stream accumulated while
    // retiring its rows — the streamed service loop is the batch
    // pipeline, bit for bit.
    let specs = source::alternating_specs(1, n_tasks);
    let batched = run_batched(cfg, Population::mturk_live(), specs, batch_size);
    assert_eq!(outcome.digest.values(), StreamDigest::of(&batched).values());
    println!(
        "\nstreamed == batched bit-for-bit: task digest {}, {} labels either way",
        clamshell::obs::fingerprint_hex(outcome.digest.values().0),
        batched.labels_produced(),
    );
}
