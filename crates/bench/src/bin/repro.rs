//! The reproduction harness CLI.
//!
//! ```text
//! repro --list                 # show all experiments
//! repro fig9 fig10             # run specific experiments
//! repro --all                  # run everything
//! repro --all --quick          # smaller workloads, single seed (EXPERIMENTS.md)
//! repro fig9 --seeds 5         # average over 5 seeds
//! repro --all --threads 4      # sweep-engine worker threads
//! repro --scenario churn       # one adversity scenario vs benign
//! repro --scenario blackout --trace t.jsonl   # + flight-recorder JSONL
//! repro --scenario churn --format json        # machine-readable report
//! repro serve --rate 0.05 --tasks 96 --checkpoint-every 8  # streaming
//! repro serve --quick          # streaming service mode, smoke cell
//! repro megasweep --cells 512 --shard-size 32   # sharded mega-grid
//! repro megasweep --resume --manifest m.jsonl   # restart a killed sweep
//! repro --help                 # usage (also -h)
//! ```
//!
//! Flags compose order-independently: an explicit `--seeds N` always
//! wins over `--quick`'s single-seed default, whichever comes first.
//! `--threads N` (env fallback `CLAMSHELL_THREADS`, default: available
//! parallelism) only changes how fast sweeps run — the engine merges
//! results in job-index order, so stdout is byte-identical at any
//! thread count. `--trace` streams every scenario cell's flight
//! recorder to a JSONL file (versioned schema, see
//! `clamshell_obs::trace`); the recording draws no RNG values, so
//! traced tables match untraced ones byte for byte.

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::str::FromStr;

use clamshell_bench::{extra_registry, registry, util::Opts};
use clamshell_obs::json_str;

/// Usage text shared by `--help` and the no-argument listing.
const USAGE: &str = "\
usage: repro [--all] [--quick] [--seeds N] [--threads N] [--scenario NAME]
             [--trace PATH] [--format FMT] [--list] [name...]
       repro serve [--rate R] [--tasks N] [--checkpoint-every K]
                   [--scenario NAME] [--quick] [--seeds N] [--threads N]
       repro megasweep [--cells N] [--shard-size S] [--manifest PATH]
                       [--resume] [--quick] [--threads N]

  --all            run every experiment
  --quick          smaller workloads and a single seed (scale 0.25)
  --seeds N        average over seeds 1..=N; always wins over --quick's
                   single-seed default, in either flag order
  --threads N      sweep-engine worker threads (else CLAMSHELL_THREADS,
                   else available parallelism); never changes stdout —
                   results merge in job-index order at any thread count
  --scenario NAME  run one adversity scenario against the benign
                   baseline (see the scenario catalog in README);
                   repeatable; `--scenario list` lists names
  --trace PATH     (with --scenario) write every cell's flight-recorder
                   trace to PATH as JSONL: one header line plus one line
                   per event per (scenario, seed), in job order
  --format FMT     output format: text (default) or json; json applies
                   to --scenario and --list, and is rejected with --all
                   (its stdout is the recorded EXPERIMENTS.md transcript)
  --list           list experiments and exit
  --help, -h       this message

serve mode (open-loop streaming service; stdout is byte-identical at
any thread count and ends with the streamed/batched equivalence line):
  --rate R             mean task arrivals per simulated second (default 0.01)
  --tasks N            stream length before --quick scaling (default 96)
  --checkpoint-every K completed tasks per checkpoint (default 8)
  --scenario NAME      compose one adversity scenario with the stream

megasweep mode (sharded mega-grid with checkpoint/resume; the final
table on stdout is bit-identical sharded vs unsharded, killed-and-
resumed vs uninterrupted, at any thread count):
  --cells N        total grid cells before --quick scaling (default 256)
  --shard-size S   cells per shard: the memory bound and checkpoint
                   granularity (default 32)
  --manifest PATH  shard manifest, one line appended per shard and
                   synced every 1,024 cells and at the end; a power
                   loss can cost up to 1,024 cells, which --resume
                   re-runs (default megasweep.manifest.jsonl)
  --resume         restart from the manifest's last completed shard";

/// Print `msg` on stderr and exit 2: how every bad argument ends.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Advance `i` past the flag at `args[*i]` and parse its value; a
/// missing or unparsable value fails with "`<flag>` takes `<what>`".
fn value<T: FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail(format_args!("{flag} takes {what}")))
}

/// `--seeds N`: zero seeds would leave every table without a row.
fn seeds_value(args: &[String], i: &mut usize) -> u64 {
    value::<NonZeroU64>(args, i, "a positive count").get()
}

/// Compose the shared flags after parsing, so order never matters:
/// `--quick` provides defaults, an explicit `--seeds` overrides them
/// either way around. Every experiment path resolves its thread count
/// from `opts` (falling back to CLAMSHELL_THREADS, then available
/// parallelism; `--threads 0` falls back the same way), so no
/// process-global state is needed.
fn compose(quick: bool, seeds: Option<u64>, threads: Option<usize>) -> Opts {
    let mut opts = Opts::default();
    if quick {
        opts.scale = 0.25;
        opts.seeds = vec![1];
    }
    if let Some(n) = seeds {
        opts.seeds = (1..=n).collect();
    }
    opts.threads = threads;
    opts
}

/// The run banner. The thread count goes to stderr, which keeps stdout
/// byte-identical across thread counts.
fn banner(opts: &Opts) {
    println!("CLAMShell reproduction harness — seeds={:?} scale={}", opts.seeds, opts.scale);
    eprintln!("sweep engine: {} worker thread(s)", opts.thread_count());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_cli(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("megasweep") {
        megasweep_cli(&args[1..]);
        return;
    }
    let mut run_all = false;
    let mut list = false;
    let mut quick = false;
    let mut seeds: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut scenarios: Vec<String> = Vec::new();
    let mut trace: Option<PathBuf> = None;
    let mut json = false;
    let mut picked: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => run_all = true,
            "--list" => list = true,
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--seeds" => seeds = Some(seeds_value(&args, &mut i)),
            "--threads" => threads = Some(value(&args, &mut i, "a count")),
            "--scenario" => scenarios.push(value(&args, &mut i, "a name")),
            "--trace" => trace = Some(value(&args, &mut i, "a path")),
            "--format" => {
                json = match value::<String>(&args, &mut i, "a value (text|json)").as_str() {
                    "text" => false,
                    "json" => true,
                    other => fail(format_args!("unknown format: {other} (text|json)")),
                }
            }
            other if other.starts_with("--") => fail(format_args!("unknown flag: {other}")),
            exp => picked.push(exp.to_string()),
        }
        i += 1;
    }

    // The --all transcript is the recorded EXPERIMENTS.md baseline;
    // machine formats and traces must not ride on it.
    if run_all && json {
        fail("--format json is not supported with --all (use --scenario or --list)");
    }
    if trace.is_some() && scenarios.is_empty() {
        fail("--trace requires --scenario");
    }
    let opts = compose(quick, seeds, threads);

    // Scenario mode: run the named adversity scenario(s) against the
    // benign baseline and exit. `--scenario list` prints the catalog.
    if !scenarios.is_empty() {
        if scenarios.iter().any(|s| s == "list") {
            println!("adversity scenarios:");
            for s in clamshell_bench::scenario_catalog() {
                println!("  {:<14} {}", s.name, s.summary);
            }
            return;
        }
        if !json {
            banner(&opts);
        }
        let mode = clamshell_bench::experiments::adversity::scenario_mode(
            &opts,
            &scenarios,
            json,
            trace.as_deref(),
        );
        if let Err(msg) = mode {
            fail(format_args!("{msg}; try --scenario list"));
        }
        return;
    }

    let all = registry();
    let extra = extra_registry();
    if list || (!run_all && picked.is_empty()) {
        if json {
            let render = |exps: &[clamshell_bench::Experiment]| {
                exps.iter()
                    .map(|(name, desc, _)| {
                        format!(
                            "\n    {{\"name\": {}, \"description\": {}}}",
                            json_str(name),
                            json_str(desc)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            print!(
                "{{\n  \"version\": 1,\n  \"report\": \"list\",\n  \"experiments\": [{}\n  ],\n  \
                 \"extra\": [{}\n  ]\n}}\n",
                render(&all),
                render(&extra)
            );
            return;
        }
        println!("experiments ({} total):", all.len());
        for (name, desc, _) in &all {
            println!("  {name:<10} {desc}");
        }
        println!("\nextra experiments (run by name; not part of --all):");
        for (name, desc, _) in &extra {
            println!("  {name:<10} {desc}");
        }
        println!("\n{USAGE}");
        return;
    }

    banner(&opts);
    let mut ran = 0;
    for (name, _, f) in &all {
        if run_all || picked.iter().any(|p| p == name) {
            f(&opts);
            ran += 1;
        }
    }
    // Extras never ride on --all (its stdout is the recorded
    // EXPERIMENTS.md transcript); they only run when named.
    for (name, _, f) in &extra {
        if picked.iter().any(|p| p == name) {
            f(&opts);
            ran += 1;
        }
    }
    if ran == 0 {
        fail(format_args!("no experiment matched {picked:?}; try --list"));
    }
}

/// `repro serve ...`: parse service-mode flags and run the streaming
/// walkthrough. Shares the harness flag conventions (`--quick` defaults,
/// explicit `--seeds` wins in either order, threads only touch stderr).
fn serve_cli(args: &[String]) {
    use clamshell_bench::experiments::serve::{serve, ServeArgs};

    let mut sa = ServeArgs::default();
    let mut quick = false;
    let mut seeds: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => quick = true,
            "--rate" => {
                sa.rate = value(args, &mut i, "a rate");
                if !(sa.rate.is_finite() && sa.rate > 0.0) {
                    fail("--rate must be positive");
                }
            }
            "--tasks" => sa.tasks = value(args, &mut i, "a count"),
            "--checkpoint-every" => {
                sa.checkpoint_every = value::<NonZeroUsize>(args, &mut i, "a positive count").get()
            }
            "--scenario" => sa.scenario = Some(value(args, &mut i, "a name")),
            "--seeds" => seeds = Some(seeds_value(args, &mut i)),
            "--threads" => threads = Some(value(args, &mut i, "a count")),
            other => fail(format_args!("unknown serve argument: {other}")),
        }
        i += 1;
    }
    let opts = compose(quick, seeds, threads);
    banner(&opts);
    if let Err(msg) = serve(&opts, &sa) {
        fail(format_args!("{msg}; try --scenario list"));
    }
}

/// `repro megasweep ...`: parse sharded-sweep flags and run the
/// mega-grid walkthrough. Stdout (header + final table) is
/// bit-identical across thread counts, shard sizes, and kill/resume
/// splits; progress and resume diagnostics go to stderr.
fn megasweep_cli(args: &[String]) {
    use clamshell_bench::experiments::megasweep::{megasweep, MegasweepArgs};

    let mut ma = MegasweepArgs::default();
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => quick = true,
            "--resume" => ma.resume = true,
            "--cells" => ma.cells = value(args, &mut i, "a count"),
            "--shard-size" => ma.shard_size = value(args, &mut i, "a count"),
            "--manifest" => ma.manifest = value(args, &mut i, "a path"),
            "--threads" => threads = Some(value(args, &mut i, "a count")),
            other => fail(format_args!("unknown megasweep argument: {other}")),
        }
        i += 1;
    }
    let opts = compose(quick, None, threads);
    banner(&opts);
    if let Err(msg) = megasweep(&opts, &ma) {
        fail(msg);
    }
}
