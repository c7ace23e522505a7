//! `repro serve`: the streaming service-mode walkthrough.
//!
//! Runs the suite's service cell in open-loop streaming mode —
//! retirement on, periodic checkpoints — prints each checkpoint's
//! dashboard row as the engine emits it, and then replays the same
//! workload through [`run_batched`] to print the bit-for-bit equivalence witness (the
//! three [`StreamDigest`] fingerprints must match exactly). Everything
//! on stdout is deterministic in `(seed, scenario, rate, tasks,
//! checkpoint interval)`: CI runs `repro serve --quick` at
//! `CLAMSHELL_THREADS=1` and `=4` and byte-compares the output.

use crate::util::Opts;
use clamshell_core::runner::run_batched;
use clamshell_obs::fingerprint_hex;
use clamshell_scenarios::{find, suite};
use clamshell_stream::{dashboard, run_stream_with, source, StreamConfig, StreamDigest};

/// Service-mode knobs parsed from the `repro serve` command line.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Mean open-loop arrival rate (tasks per simulated second).
    pub rate: f64,
    /// Stream length before `--quick` scaling.
    pub tasks: usize,
    /// Completed tasks per checkpoint.
    pub checkpoint_every: usize,
    /// Optional adversity scenario to compose with the stream.
    pub scenario: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        // The default rate sits near the suite cell's service
        // throughput (~0.014 tasks per simulated second), so the
        // walkthrough shows a backlog that drains instead of an
        // overloaded queue. Rate is reporting-only either way.
        ServeArgs { rate: 0.01, tasks: 96, checkpoint_every: 8, scenario: None }
    }
}

/// Run the service walkthrough; `Err` carries the user-facing message
/// for an unknown scenario name.
pub fn serve(opts: &Opts, args: &ServeArgs) -> Result<(), String> {
    let scenario = args
        .scenario
        .as_deref()
        .map(|name| find(name).ok_or_else(|| format!("unknown scenario: {name}")))
        .transpose()?;
    let n_tasks = opts.n(args.tasks);
    let knobs = StreamConfig {
        rate_per_sec: args.rate,
        checkpoint_every: args.checkpoint_every,
        retire: true,
    };
    for &seed in &opts.seeds {
        let mut cfg = suite::base_config();
        cfg.seed = seed;
        if let Some(def) = scenario {
            def.apply(&mut cfg);
        }
        println!(
            "\n== serve: {} tasks at {} tasks/s, checkpoint every {}, scenario {}, seed {} ==",
            n_tasks,
            args.rate,
            args.checkpoint_every,
            scenario.map_or("benign", |d| d.name),
            seed
        );
        // The service run: unbounded source, bounded memory (completed
        // state retires at every batch boundary, and each checkpoint
        // row prints as it is emitted instead of being kept).
        println!("{}", dashboard::header());
        let outcome = run_stream_with(
            cfg.clone(),
            suite::population(),
            source::alternating(suite::NG as u32),
            n_tasks,
            suite::BATCH,
            &knobs,
            |c| println!("{}", dashboard::row(c)),
        );
        println!("{}", dashboard::summary(outcome.checkpoints.last()));

        // The equivalence witness: the batched run over the same spec
        // prefix must fold to the same three digests the stream
        // accumulated while retiring rows. It materializes every spec
        // and a full report on purpose, so this check is O(n) in the
        // stream length where the stream itself is not.
        let specs = source::alternating_specs(suite::NG as u32, n_tasks);
        let batched = run_batched(cfg, suite::population(), specs, suite::BATCH);
        let streamed = outcome.digest.values();
        let reference = StreamDigest::of(&batched).values();
        assert_eq!(
            streamed, reference,
            "streamed/batched equivalence broke: {streamed:?} != {reference:?}"
        );
        println!(
            "equivalence: streamed == batched bit-for-bit (tasks {}, assignments {}, batches {})",
            fingerprint_hex(streamed.0),
            fingerprint_hex(streamed.1),
            fingerprint_hex(streamed.2)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_runs_the_quick_cell() {
        let opts = Opts { seeds: vec![1], scale: 0.25, threads: None };
        assert!(serve(&opts, &ServeArgs::default()).is_ok());
    }

    #[test]
    fn serve_composes_with_scenarios_and_rejects_unknown_names() {
        let opts = Opts { seeds: vec![1], scale: 0.25, threads: None };
        let churn = ServeArgs { scenario: Some("churn".into()), ..ServeArgs::default() };
        assert!(serve(&opts, &churn).is_ok());
        let bogus = ServeArgs { scenario: Some("nope".into()), ..ServeArgs::default() };
        assert_eq!(serve(&opts, &bogus), Err("unknown scenario: nope".into()));
    }
}
