//! The parent side of `run`: spawn one child per repetition, schedule
//! repetitions at 1 and 2 sweep threads within the time budget, check
//! every repetition's output digest, and summarise the end-to-end
//! metrics.

use crate::json::Json;
use crate::span::Span;
use crate::workload::{ChildArgs, ChildReport, Workload, READY, REPORT};
use clamshell_obs::Fnv;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The sweep widths every workload is measured at. Two is the host's
/// core count; no child ever runs more threads than this.
pub const WIDTHS: [usize; 2] = [1, 2];

/// Set-up probes per workload run: children that stop at the timed
/// region, so `setup_s` is a median over many set-ups.
pub const SETUP_PROBES: usize = 31;

/// A child is killed after this multiple of its workload's committed
/// median, so a hang is a counted failure rather than a stuck run.
pub const TIMEOUT_FACTOR: f64 = 5.0;

/// The shortest timeout: a sub-second workload still gets room for a
/// neighbour's burst on a shared host before it counts as hung.
const MIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The timeout for a workload with no committed median.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(170);

/// The seed `expected.json` pins digests for.
pub const EXPECTED_SEED: u64 = 1;

/// One end-to-end metric and the bound by which it may worsen before a
/// change counts as a regression (a share of the baseline value).
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Allowed worsening, as a share of the baseline.
    pub bound: f64,
}

/// The end-to-end metrics, all lower-is-better. `BENCHMARK.json` at the
/// repository root carries the same names, units and bounds. The wall
/// bounds are wide because the shared host's speed drifts by 10–30%
/// over minutes (see `perf/README.md`).
pub const E2E: [E2e; 4] = [
    E2e { name: "wall_s.t1", unit: "s", bound: 0.25 },
    E2e { name: "wall_s.t2", unit: "s", bound: 0.25 },
    E2e { name: "setup_s", unit: "s", bound: 0.25 },
    E2e { name: "peak_rss_mb", unit: "MB", bound: 0.1 },
];

/// The harness's output directory (`perf/out`).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A committed file next to `Cargo.toml`.
pub fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `text` to `path`, creating the parent directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `perf/expected.json`: per workload, the output digest at
/// [`EXPECTED_SEED`] and the committed median 1-thread wall time.
#[derive(Debug, Clone)]
pub struct Expected(Json);

impl Expected {
    /// Load the committed expectations (empty if the file is missing).
    pub fn load() -> Expected {
        Expected(read_json(&committed("expected.json")).unwrap_or_else(|_| Json::obj()))
    }

    fn entry(&self, w: Workload) -> Option<&Json> {
        self.0.get("workloads")?.get(w.name())
    }

    /// The committed digest of `w` at [`EXPECTED_SEED`].
    pub fn digest(&self, w: Workload) -> Option<u64> {
        u64::from_str_radix(self.entry(w)?.get("digest")?.as_str()?, 16).ok()
    }

    /// The per-child timeout of `w`.
    pub fn timeout(&self, w: Workload) -> Duration {
        self.entry(w).and_then(|e| e.get("median_s")?.as_f64()).map_or(DEFAULT_TIMEOUT, |m| {
            Duration::from_secs_f64(m * TIMEOUT_FACTOR).max(MIN_TIMEOUT)
        })
    }
}

/// One finished child.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Sweep threads it ran with.
    pub threads: usize,
    /// Seconds from spawning it to its timed region.
    pub spawn_to_ready_s: f64,
    /// What it reported.
    pub report: ChildReport,
    /// Its output digest: FNV-1a of its stdout, then its own digest.
    pub digest: u64,
}

fn unique_work_dir(w: Workload) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join("work").join(format!("{}-{}-{n}", w.name(), std::process::id()))
}

/// Spawn `exe child ...` for one repetition and wait for it, killing it
/// once `timeout` has passed. Returns the finished repetition, or why it
/// failed.
pub fn spawn_child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    threads: usize,
    setup_only: bool,
    timeout: Duration,
) -> Result<Rep, String> {
    let args = ChildArgs { workload, seed, threads, work: unique_work_dir(workload), setup_only };
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(args.to_args())
        .env("CLAMSHELL_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let spawned = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    // Both pipes drain on their own threads so a chatty child never
    // blocks on a full pipe; stderr lines are timestamped as they land.
    let out_reader = std::thread::spawn(move || -> std::io::Result<u64> {
        let mut h = Fnv::new();
        let mut buf = vec![0u8; 1 << 16];
        loop {
            match stdout.read(&mut buf)? {
                0 => return Ok(h.finish()),
                n => h.write(&buf[..n]),
            }
        }
    });
    let err_reader = std::thread::spawn(move || {
        let mut ready: Option<Instant> = None;
        let mut report: Option<String> = None;
        let mut tail: Vec<String> = Vec::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if line == READY {
                ready = Some(Instant::now());
            } else if let Some(json) = line.strip_prefix(REPORT) {
                report = Some(json.to_string());
            } else {
                tail.push(line);
                if tail.len() > 8 {
                    tail.remove(0);
                }
            }
        }
        (ready, report, tail)
    });

    let what = format!("{} t{threads}", workload.name());
    let deadline = spawned + timeout;
    let status = loop {
        let failed = match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Ok(None) => format!("{what}: timed out after {:.1}s", timeout.as_secs_f64()),
            Err(e) => format!("{what}: cannot wait for the child: {e}"),
        };
        let _ = child.kill();
        let _ = child.wait();
        break Err(failed);
    };
    // The child has exited, so both pipes are closed and the readers end.
    let stdout_digest = out_reader.join().expect("stdout reader panicked");
    let (ready, report, tail) = err_reader.join().expect("stderr reader panicked");
    let _ = std::fs::remove_dir_all(&args.work);

    let status = status?;
    if !status.success() {
        return Err(format!("{what}: exited with {status}: {}", tail.join(" | ")));
    }
    let report = report
        .and_then(|r| Json::parse(&r).ok())
        .and_then(|j| ChildReport::from_json(&j))
        .ok_or_else(|| format!("{what}: no report on stderr"))?;
    let ready = ready.ok_or_else(|| format!("{what}: never reached its timed region"))?;
    let stdout_digest = stdout_digest.map_err(|e| format!("{what}: reading stdout: {e}"))?;
    let mut h = Fnv::new();
    h.write(&stdout_digest.to_le_bytes());
    if let Some(d) = report.digest {
        h.write(&d.to_le_bytes());
    }
    Ok(Rep {
        threads,
        spawn_to_ready_s: ready.duration_since(spawned).as_secs_f64(),
        report,
        digest: h.finish(),
    })
}

/// A sample summary: the reported value plus the spread beside it.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// The metric's value (which statistic depends on the metric).
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

impl Stat {
    fn of(xs: &[f64], value: impl Fn(&Stat) -> f64) -> Option<Stat> {
        if xs.is_empty() {
            return None;
        }
        let mut s = Stat {
            value: 0.0,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(xs),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        };
        s.value = value(&s);
        Some(s)
    }

    /// Minimum-valued summary: what a noisy neighbour disturbs least.
    pub fn min_of(xs: &[f64]) -> Option<Stat> {
        Stat::of(xs, |s| s.min)
    }

    /// Median-valued summary.
    pub fn median_of(xs: &[f64]) -> Option<Stat> {
        Stat::of(xs, |s| s.median)
    }
}

/// Each span's path of names from its root, `/`-separated, which names
/// the same phase in every repetition. A parent precedes its children.
fn span_paths(spans: &[Span]) -> Vec<String> {
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    for s in spans {
        let path = match s.parent {
            Some(p) => format!("{}/{}", paths[p], s.name),
            None => s.name.clone(),
        };
        paths.push(path);
    }
    paths
}

/// The undisturbed time of span `id` of a template repetition: a leaf at
/// its `fastest` time; otherwise its children's estimates, summed if the
/// children ran one after another and their maximum if any overlapped.
fn estimate(spans: &[Span], paths: &[String], id: usize, fastest: &BTreeMap<String, f64>) -> f64 {
    let kids: Vec<usize> = (0..spans.len()).filter(|&k| spans[k].parent == Some(id)).collect();
    if kids.is_empty() {
        return fastest.get(&paths[id]).copied().unwrap_or_else(|| spans[id].secs());
    }
    let parts = kids.iter().map(|&k| estimate(spans, paths, k, fastest));
    if kids.windows(2).any(|w| spans[w[1]].start_s < spans[w[0]].end_s) {
        parts.fold(0.0, f64::max)
    } else {
        parts.sum()
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Set-up seconds of each probe.
    pub setup: Vec<f64>,
    /// Successful repetitions, in run order.
    pub reps: Vec<Rep>,
    /// Children started (probes and repetitions).
    pub attempted: usize,
    /// Why each failed child failed.
    pub errors: Vec<String>,
    /// Digest mismatches found by the output check.
    pub mismatches: Vec<String>,
}

impl Measured {
    /// True when every repetition's output agrees with every other's and,
    /// at the expected seed, with the committed digest.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The digest all repetitions agreed on.
    pub fn digest(&self) -> Option<u64> {
        self.reps.first().map(|r| r.digest)
    }

    /// The wall time at `threads`: each phase of the timed region (a leaf
    /// span under it, such as one `paper` experiment) at its fastest
    /// repetition, combined up the span tree: summed where sibling spans
    /// ran one after another, their maximum where they overlapped (lanes
    /// on parallel threads, such as the two `serve` streams at 2
    /// threads). A region without phases is one phase, so its value is
    /// the fastest repetition. The host's speed changes within seconds, so
    /// the shorter the phase, the likelier one repetition ran it
    /// undisturbed. Min, median and max are of whole repetitions.
    fn wall(&self, threads: usize) -> Option<Stat> {
        let reps: Vec<&Rep> = self.reps.iter().filter(|r| r.threads == threads).collect();
        let mut stat = Stat::min_of(&reps.iter().map(|r| r.report.wall_s).collect::<Vec<_>>())?;
        let mut fastest: BTreeMap<String, f64> = BTreeMap::new();
        for rep in &reps {
            for (path, span) in span_paths(&rep.report.spans).into_iter().zip(&rep.report.spans) {
                let best = fastest.entry(path).or_insert(f64::INFINITY);
                *best = best.min(span.secs());
            }
        }
        let template = &reps[0].report.spans;
        stat.value = estimate(template, &span_paths(template), 0, &fastest);
        Some(stat)
    }

    /// The end-to-end metrics, in [`E2E`] order; `None` where no sample
    /// exists (every repetition of that leg failed).
    pub fn metrics(&self) -> Vec<(E2e, Option<Stat>)> {
        let rss: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| r.threads == 1)
            .map(|r| r.report.rss_kb as f64 / 1024.0)
            .collect();
        E2E.iter()
            .map(|m| {
                let stat = match m.name {
                    "wall_s.t1" => self.wall(1),
                    "wall_s.t2" => self.wall(2),
                    "setup_s" => Stat::median_of(&self.setup),
                    "peak_rss_mb" => Stat::median_of(&rss),
                    other => unreachable!("no measurement for {other}"),
                };
                (*m, stat)
            })
            .collect()
    }

    /// Failed children over children started.
    pub fn fail_ratio(&self) -> f64 {
        self.errors.len() as f64 / self.attempted.max(1) as f64
    }
}

/// Run `workload` for about `budget`: [`SETUP_PROBES`] set-up probes,
/// then repetitions alternating 1 and 2 threads until the next one
/// would overrun the budget (each width always runs at least once).
pub fn measure(
    exe: &Path,
    workload: Workload,
    seed: u64,
    budget: Duration,
    expected: &Expected,
) -> Measured {
    let started = Instant::now();
    let timeout = expected.timeout(workload);
    let mut m = Measured {
        workload,
        seed,
        setup: Vec::new(),
        reps: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        mismatches: Vec::new(),
    };
    let attempt = |m: &mut Measured, threads: usize, setup_only: bool| {
        m.attempted += 1;
        match spawn_child(exe, workload, seed, threads, setup_only, timeout) {
            Ok(rep) if setup_only => m.setup.push(rep.spawn_to_ready_s),
            Ok(rep) => m.reps.push(rep),
            Err(e) => m.errors.push(e),
        }
    };
    for _ in 0..SETUP_PROBES {
        attempt(&mut m, 1, true);
    }
    // Alternate the widths; once each has run, stop before a repetition
    // that (judged by that width's last one) would overrun the budget.
    let mut last = [Duration::ZERO; WIDTHS.len()];
    for i in 0.. {
        let leg = i % WIDTHS.len();
        if i >= WIDTHS.len() && started.elapsed() + last[leg] > budget {
            break;
        }
        let rep = Instant::now();
        attempt(&mut m, WIDTHS[leg], false);
        last[leg] = rep.elapsed();
    }

    let want = if seed == EXPECTED_SEED { expected.digest(workload) } else { None };
    if let Some(first) = m.reps.first() {
        let reference = want.unwrap_or(first.digest);
        for rep in &m.reps {
            if rep.digest != reference {
                m.mismatches.push(format!(
                    "{} t{}: digest {:016x} != {:016x}{}",
                    workload.name(),
                    rep.threads,
                    rep.digest,
                    reference,
                    if want.is_some() { " (expected.json)" } else { " (first repetition)" }
                ));
            }
        }
    }
    m
}

/// The `results.json` entry of one measured workload.
pub fn workload_json(m: &Measured) -> Json {
    let mut metrics = Json::obj();
    for (e2e, stat) in m.metrics() {
        let entry = match stat {
            Some(s) => Json::obj()
                .with("value", s.value)
                .with("unit", e2e.unit)
                .with("min", s.min)
                .with("median", s.median)
                .with("max", s.max)
                .with("n", s.n),
            None => Json::obj().with("value", Json::Null).with("unit", e2e.unit),
        };
        metrics.set(e2e.name, entry);
    }
    metrics.set("fail_ratio", Json::obj().with("value", m.fail_ratio()).with("unit", "ratio"));
    Json::obj()
        .with("seed", m.seed)
        .with("correct", m.correct())
        .with("attempted", m.attempted)
        .with("failed", m.errors.len())
        .with("digest", m.digest().map_or(Json::Null, |d| Json::from(format!("{d:016x}"))))
        .with(
            "errors",
            Json::Arr(
                m.errors.iter().chain(&m.mismatches).map(|e| Json::from(e.as_str())).collect(),
            ),
        )
        .with("metrics", metrics)
}

/// One human-readable line per metric.
pub fn print_metrics(m: &Measured) {
    for (e2e, stat) in m.metrics() {
        match stat {
            Some(s) => println!(
                "{:<10} {:<12} {:>10.4} {:<3} (min {:.4}, median {:.4}, max {:.4}, n={})",
                m.workload.name(),
                e2e.name,
                s.value,
                e2e.unit,
                s.min,
                s.median,
                s.max,
                s.n
            ),
            None => println!("{:<10} {:<12} no successful sample", m.workload.name(), e2e.name),
        }
    }
    println!(
        "{:<10} {:<12} {:>10.4} {:<3} ({} of {} children failed)",
        m.workload.name(),
        "fail_ratio",
        m.fail_ratio(),
        "",
        m.errors.len(),
        m.attempted
    );
    for e in m.errors.iter().chain(&m.mismatches) {
        println!("{:<10} error: {e}", m.workload.name());
    }
}

/// The one-line result that ends a benchmark run's stdout: every end-to-end
/// metric with its unit. `None` when a metric has no sample.
pub fn summary_line(m: &Measured) -> Option<String> {
    let mut metrics = Json::obj();
    for (e2e, stat) in m.metrics() {
        metrics.set(e2e.name, Json::obj().with("value", stat?.value).with("unit", e2e.unit));
    }
    Some(
        Json::obj()
            .with("correct", m.correct())
            .with("attempted", m.attempted)
            .with("failed", m.errors.len())
            .with("metrics", metrics)
            .render(),
    )
}

/// Seconds each workload is measured for when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 30;

/// The options of `run` (and of the `layers` binary, which accepts the
/// same flags so one command line serves both).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workloads to measure (all when none is named).
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure each workload for.
    pub seconds: u64,
    /// `--trace 1`: the traced per-layer run instead.
    pub trace: bool,
    /// Where `results.json` goes.
    pub out: PathBuf,
}

impl RunArgs {
    /// Parse `[--workload W]... [--seed S] [--seconds T] [--trace 0|1]
    /// [--out PATH]`.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut a = RunArgs {
            workloads: Vec::new(),
            seed: EXPECTED_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: out_dir().join("results.json"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} takes a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    a.workloads.push(Workload::parse(name).ok_or(format!(
                        "unknown workload {name} (paper, megasweep, serve, traced)"
                    ))?);
                }
                "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|_| "--seconds takes a whole number")?;
                    if a.seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out" => a.out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if a.workloads.is_empty() {
            a.workloads = Workload::ALL.to_vec();
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(threads: usize, spans: &[(&str, f64, f64, Option<usize>)]) -> Rep {
        let spans: Vec<Span> = spans
            .iter()
            .map(|&(name, start_s, end_s, parent)| Span {
                name: name.into(),
                start_s,
                end_s,
                parent,
            })
            .collect();
        let report =
            ChildReport { setup_s: 0.0, wall_s: spans[0].secs(), rss_kb: 0, digest: None, spans };
        Rep { threads, spawn_to_ready_s: 0.0, report, digest: 0 }
    }

    fn measured(reps: Vec<Rep>) -> Measured {
        Measured {
            workload: Workload::Serve,
            seed: 1,
            setup: vec![0.001],
            reps,
            attempted: 0,
            errors: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    /// Two lanes of two phases each; `shift` starts the second lane that
    /// many seconds after the region does.
    fn lanes(threads: usize, shift: f64, phases: [f64; 4]) -> Rep {
        let [a, b, c, d] = phases;
        let end = (a + b).max(shift + c + d);
        rep(
            threads,
            &[
                ("workload", 0.0, end, None),
                ("stream.0", 0.0, a + b, Some(0)),
                ("tasks.0", 0.0, a, Some(1)),
                ("tasks.1", a, a + b, Some(1)),
                ("stream.1", shift, shift + c + d, Some(0)),
                ("tasks.0", shift, shift + c, Some(4)),
                ("tasks.1", shift + c, shift + c + d, Some(4)),
            ],
        )
    }

    #[test]
    fn wall_sums_sequential_phases_and_takes_the_longest_overlapping_lane() {
        // Fastest phases: lane 0 takes 1 + 2, lane 1 takes 2 + 3.
        let m = measured(vec![
            lanes(1, 4.0, [1.0, 3.0, 2.0, 4.0]),
            lanes(1, 4.0, [2.0, 2.0, 3.0, 3.0]),
            lanes(2, 0.0, [1.0, 3.0, 2.0, 4.0]),
            lanes(2, 0.0, [2.0, 2.0, 3.0, 3.0]),
        ]);
        let t1 = m.wall(1).unwrap();
        assert_eq!((t1.value, t1.min, t1.max, t1.n), (8.0, 10.0, 10.0, 2));
        let t2 = m.wall(2).unwrap();
        assert_eq!((t2.value, t2.min, t2.max), (5.0, 6.0, 6.0));
    }

    #[test]
    fn wall_without_phases_is_the_fastest_repetition() {
        let m = measured(vec![
            rep(1, &[("workload", 0.0, 3.0, None)]),
            rep(1, &[("workload", 0.5, 2.5, None)]),
        ]);
        assert_eq!(m.wall(1).unwrap().value, 2.0);
        assert!(m.wall(2).is_none());
    }
}
