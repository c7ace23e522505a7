//! The four benchmark workloads, and the child process that runs one
//! repetition of one of them.
//!
//! Every workload is closed-loop: one caller, a fixed input generated
//! from the seed, timed to completion. Each repetition runs in a fresh
//! child process, so it starts with a cold persistent worker pool and has
//! its own peak memory, like a user's `repro` invocation.

use crate::json::Json;
use crate::span::{Span, Spans};
use clamshell_bench::experiments::adversity::scenario_mode;
use clamshell_bench::util::{binary_specs, Opts};
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_obs::Fnv;
use clamshell_scenarios::suite;
use clamshell_stream::{run_stream, source, StreamConfig, StreamOutcome};
use clamshell_sweep::shard::{run_sharded, ShardOptions};
use clamshell_sweep::{pool, CancelToken, Grid, Metric, MetricsAggregator};
use clamshell_trace::Population;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 24 `--all` experiments at `--quick` scale over three seeds.
    Paper,
    /// The 100k-cell sharded megasweep at the default shard size.
    Megasweep,
    /// Two 1M-task open-loop service streams.
    Serve,
    /// Every catalog scenario with flight-recorder traces on.
    Traced,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Paper, Workload::Megasweep, Workload::Serve, Workload::Traced];

    /// The workload's name on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Megasweep => "megasweep",
            Workload::Serve => "serve",
            Workload::Traced => "traced",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seeds per megasweep scenario: SM/NoSM × 50,000 = 100,000 cells, the
/// `repro megasweep --cells 100000` grid.
pub const MEGASWEEP_SEEDS: u64 = 50_000;
/// The megasweep's shard size: `repro megasweep`'s default.
pub const MEGASWEEP_SHARD: usize = 32;
/// Phases the megasweep's timed region is cut into, by cell count.
const MEGASWEEP_PHASES: usize = 10;
/// Tasks per serve stream.
pub const SERVE_TASKS: usize = 1_000_000;
/// Phases each serve stream is cut into, by tasks pulled from its source.
const SERVE_PHASES: usize = 100;
/// Seeds per catalog scenario in the traced workload.
pub const TRACED_SEEDS: u64 = 256;

/// `repro --all --quick`'s scale. At full scale one repetition takes
/// about 9 s, too long to repeat often enough within a run for a steady
/// minimum; at this scale the learning figures still do most of the work.
pub const PAPER_SCALE: f64 = 0.25;

/// `repro --all --quick --seeds 3`'s options, at seeds
/// `[seed, seed+1, seed+2]`.
pub fn paper_opts(seed: u64, threads: usize) -> Opts {
    Opts { seeds: vec![seed, seed + 1, seed + 2], scale: PAPER_SCALE, threads: Some(threads) }
}

/// The megasweep grid, built through the public `Grid` API exactly as
/// `repro megasweep` builds it, with the seed axis starting at `seed`.
pub fn megasweep_grid(seed: u64) -> Grid {
    let seeds: Vec<u64> = (seed..seed + MEGASWEEP_SEEDS).collect();
    Grid::new(
        RunConfig { pool_size: 4, ng: 2, ..Default::default() },
        Population::mturk_live(),
        binary_specs(4, 2),
        4,
    )
    .seeds(&seeds)
    .scenario("SM", |c| c.straggler = Some(Default::default()))
    .scenario("NoSM", |c| c.straggler = None)
}

/// A fresh aggregator shaped for `grid`, as `repro megasweep` folds into.
pub fn megasweep_aggregator(grid: &Grid) -> MetricsAggregator {
    MetricsAggregator::new(grid.n_scenarios(), Metric::standard())
}

/// The serve stream seeds: `seed` and `seed + 1`.
pub fn serve_configs(seed: u64) -> Vec<RunConfig> {
    [seed, seed + 1].iter().map(|&s| RunConfig { seed: s, ..suite::base_config() }).collect()
}

/// One serve stream over the lazy alternating source, with `repro
/// serve`'s defaults (rate 0.01, checkpoint every 8, retire on). The
/// source must stay lazy: a materialized 1M-spec vector would add ~60 MB
/// of RSS and hide the engine's bounded memory.
pub fn serve_stream(cfg: RunConfig) -> StreamOutcome {
    serve_stream_from(cfg, source::alternating(suite::NG as u32))
}

fn serve_stream_from(cfg: RunConfig, specs: impl IntoIterator<Item = TaskSpec>) -> StreamOutcome {
    let knobs = StreamConfig { rate_per_sec: 0.01, checkpoint_every: 8, retire: true };
    run_stream(cfg, suite::population(), specs, SERVE_TASKS, suite::BATCH, &knobs)
}

/// A task source that notes the time whenever another `every` specs
/// have been pulled: the serve phase boundaries, at the cost of a count
/// and a compare per spec. The specs pass through unchanged.
struct Laps<I> {
    specs: I,
    every: usize,
    pulled: usize,
    marks: Vec<Instant>,
}

impl<I: Iterator<Item = TaskSpec>> Iterator for Laps<I> {
    type Item = TaskSpec;

    fn next(&mut self) -> Option<TaskSpec> {
        if self.pulled > 0 && self.pulled.is_multiple_of(self.every) {
            self.marks.push(Instant::now());
        }
        self.pulled += 1;
        self.specs.next()
    }
}

/// One serve stream cut into phases: its start, the start of every
/// phase after the first, and its end.
fn serve_stream_timed(cfg: RunConfig) -> (StreamOutcome, Vec<Instant>) {
    let mut laps = Laps {
        specs: source::alternating(suite::NG as u32),
        every: SERVE_TASKS.div_ceil(SERVE_PHASES),
        pulled: 0,
        marks: vec![Instant::now()],
    };
    let outcome = serve_stream_from(cfg, &mut laps);
    laps.marks.push(Instant::now());
    (outcome, laps.marks)
}

/// FNV-1a over `words` in little-endian byte order.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Stderr line a child prints when its timed region starts; the parent
/// timestamps it to measure set-up time from spawn.
pub const READY: &str = "perf-child-ready";
/// Prefix of the child's final stderr line, followed by its report JSON.
pub const REPORT: &str = "perf-child-report ";

/// What one child is asked to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Sweep threads (also exported as `CLAMSHELL_THREADS`).
    pub threads: usize,
    /// Scratch directory the child creates, uses and removes.
    pub work: PathBuf,
    /// Stop after set-up: a set-up time probe.
    pub setup_only: bool,
}

impl ChildArgs {
    /// The arguments after the `child` subcommand.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--threads".into(),
            self.threads.to_string(),
            "--work".into(),
            self.work.display().to_string(),
        ];
        if self.setup_only {
            args.push("--setup-only".into());
        }
        args
    }

    /// Inverse of [`ChildArgs::to_args`].
    pub fn parse(args: &[String]) -> Result<ChildArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut threads = None;
        let mut work = None;
        let mut setup_only = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} takes a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a number")?),
                "--threads" => {
                    threads = Some(value()?.parse().map_err(|_| "--threads takes a number")?)
                }
                "--work" => work = Some(PathBuf::from(value()?)),
                "--setup-only" => setup_only = true,
                other => return Err(format!("unknown child argument {other}")),
            }
        }
        Ok(ChildArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            threads: threads.ok_or("--threads is required")?,
            work: work.ok_or("--work is required")?,
            setup_only,
        })
    }
}

/// What a child reports on its last stderr line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    /// Seconds from the child's `main` to its timed region.
    pub setup_s: f64,
    /// Seconds in the timed region.
    pub wall_s: f64,
    /// Peak resident set at exit, KiB.
    pub rss_kb: u64,
    /// The child's share of the output digest (the parent folds stdout in).
    pub digest: Option<u64>,
    /// The child's spans: the timed region plus one per phase.
    pub spans: Vec<Span>,
}

impl ChildReport {
    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("setup_s", self.setup_s)
            .with("wall_s", self.wall_s)
            .with("rss_kb", self.rss_kb)
            .with("digest", self.digest.map_or(Json::Null, |d| Json::from(format!("{d:016x}"))))
            .with(
                "spans",
                Json::Arr(self.spans.iter().enumerate().map(|(i, s)| s.to_json(i)).collect()),
            )
    }

    /// Inverse of [`ChildReport::to_json`].
    pub fn from_json(j: &Json) -> Option<ChildReport> {
        let spans = match j.get("spans")? {
            Json::Arr(items) => items.iter().map(Span::from_json).collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(ChildReport {
            setup_s: j.get("setup_s")?.as_f64()?,
            wall_s: j.get("wall_s")?.as_f64()?,
            rss_kb: j.get("rss_kb")?.as_f64()? as u64,
            digest: match j.get("digest")? {
                Json::Str(hex) => Some(u64::from_str_radix(hex, 16).ok()?),
                _ => None,
            },
            spans,
        })
    }
}

/// A workload's generated input, ready for the timed region. A child
/// builds exactly one, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Input {
    Paper(Opts),
    Megasweep { grid: Grid, agg: MetricsAggregator, opts: ShardOptions },
    Serve { configs: Vec<RunConfig>, threads: usize },
    Traced { opts: Opts, names: Vec<String>, dir: PathBuf },
}

/// Build the workload's input: everything before the timed region.
fn setup(a: &ChildArgs) -> Result<Input, String> {
    let mkdir = |dir: &Path| {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
    };
    Ok(match a.workload {
        Workload::Paper => Input::Paper(paper_opts(a.seed, a.threads)),
        Workload::Megasweep => {
            mkdir(&a.work)?;
            let grid = megasweep_grid(a.seed);
            let agg = megasweep_aggregator(&grid);
            let opts = ShardOptions {
                shard_size: MEGASWEEP_SHARD,
                manifest: a.work.join("megasweep.manifest.jsonl"),
                resume: false,
                threads: Some(a.threads),
            };
            Input::Megasweep { grid, agg, opts }
        }
        Workload::Serve => Input::Serve { configs: serve_configs(a.seed), threads: a.threads },
        Workload::Traced => {
            mkdir(&a.work)?;
            Input::Traced {
                opts: Opts {
                    seeds: (a.seed..a.seed + TRACED_SEEDS).collect(),
                    scale: 1.0,
                    threads: Some(a.threads),
                },
                names: clamshell_scenarios::names().into_iter().map(String::from).collect(),
                dir: a.work.clone(),
            }
        }
    })
}

/// The output beyond stdout that the timed region leaves for the digest:
/// nothing, a digest computed in memory, or files to hash, in order,
/// after the timed region.
enum Output {
    Stdout,
    Digest(u64),
    Files(Vec<PathBuf>),
}

/// The timed region.
fn run(input: Input, sp: &mut Spans) -> Result<Output, String> {
    match input {
        Input::Paper(opts) => {
            for (name, _, f) in clamshell_bench::registry() {
                sp.time(name, |_| f(&opts));
            }
            Ok(Output::Stdout)
        }
        Input::Megasweep { grid, mut agg, opts } => {
            // Phases of equal cell counts, cut by the progress callback
            // (`repro megasweep` passes one too).
            let total = grid.n_jobs();
            let per_phase = total.div_ceil(MEGASWEEP_PHASES);
            let mut phase = sp.open("cells.0");
            let outcome = run_sharded(
                &grid,
                &mut agg,
                &opts,
                &CancelToken::new(),
                Some(&mut |done, _| {
                    if done % per_phase == 0 && done < total {
                        sp.close(phase);
                        phase = sp.open(format!("cells.{}", done / per_phase));
                    }
                }),
            );
            sp.close(phase);
            let outcome = outcome.map_err(|e| format!("megasweep failed: {e}"))?;
            if !outcome.is_complete() {
                return Err(format!(
                    "megasweep stopped at {} of {} cells",
                    outcome.completed, outcome.total
                ));
            }
            Ok(Output::Digest(fnv_words(agg.snapshot_words())))
        }
        Input::Serve { configs, threads } => {
            // Each stream is a lane of phases, timed on its own thread.
            let timed = pool::map(configs, threads, |_, _, cfg| serve_stream_timed(cfg));
            let mut outcomes = Vec::new();
            for (i, (outcome, marks)) in timed.into_iter().enumerate() {
                let (first, last) = (marks[0], marks[marks.len() - 1]);
                let lane = sp.record(format!("stream.{i}"), first, last, sp.current());
                for (k, w) in marks.windows(2).enumerate() {
                    sp.record(format!("tasks.{k}"), w[0], w[1], Some(lane));
                }
                outcomes.push(outcome);
            }
            Ok(Output::Digest(stream_digest(&outcomes)))
        }
        Input::Traced { opts, names, dir } => {
            // One call per scenario, each its own phase: the stdout and the
            // traces, concatenated, equal one call's over every name.
            let mut files = Vec::new();
            for name in names {
                let trace = dir.join(format!("trace-{}.jsonl", files.len()));
                sp.time(name.as_str(), |_| {
                    scenario_mode(&opts, std::slice::from_ref(&name), false, Some(&trace))
                })?;
                files.push(trace);
            }
            Ok(Output::Files(files))
        }
    }
}

/// The serve digest: both streams' `StreamDigest` triples.
pub fn stream_digest(outcomes: &[StreamOutcome]) -> u64 {
    fnv_words(outcomes.iter().flat_map(|o| {
        let (tasks, assignments, batches) = o.digest.values();
        [tasks, assignments, batches]
    }))
}

/// FNV-1a of the files' bytes, concatenated in order and streamed.
fn hash_files(paths: &[PathBuf]) -> Result<u64, String> {
    let mut h = Fnv::new();
    let mut buf = vec![0u8; 1 << 16];
    for path in paths {
        let mut file = std::fs::File::open(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        loop {
            match file.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => h.write(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
            }
        }
    }
    Ok(h.finish())
}

/// One repetition, from set-up to the digest; `origin` is the child's
/// start. Removes the scratch directory whatever happens.
fn repetition(a: &ChildArgs, origin: Instant) -> Result<ChildReport, String> {
    let input = setup(a)?;
    let setup_s = origin.elapsed().as_secs_f64();
    eprintln!("{READY}");
    let mut spans = Spans::new(origin);
    let mut report =
        ChildReport { setup_s, wall_s: 0.0, rss_kb: 0, digest: None, spans: Vec::new() };
    if !a.setup_only {
        let output = spans.time("workload", |sp| run(input, sp))?;
        report.wall_s = spans.all()[0].secs();
        report.digest = match output {
            Output::Stdout => None,
            Output::Digest(d) => Some(d),
            Output::Files(files) => Some(hash_files(&files)?),
        };
    }
    report.spans = spans.all().to_vec();
    Ok(report)
}

/// `child ...`: run one repetition and print its report as the last
/// stderr line. Returns the process exit code.
pub fn child_main(args: &[String]) -> i32 {
    let origin = Instant::now();
    let a = match ChildArgs::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("child: {e}");
            return 2;
        }
    };
    let result = repetition(&a, origin);
    let _ = std::fs::remove_dir_all(&a.work);
    match result {
        Ok(mut report) => {
            report.rss_kb = crate::host::peak_rss_kb().unwrap_or(0);
            eprintln!("{REPORT}{}", report.to_json().render());
            0
        }
        Err(e) => {
            eprintln!("child: {} failed: {e}", a.workload.name());
            1
        }
    }
}
