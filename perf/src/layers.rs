//! The traced run: per-layer times from spans around the harness's calls
//! into each layer's public functions, and exact work counts read from
//! those functions' public outputs.
//!
//! A layer's self time is the difference between calls on identical
//! input (for example the sweep engine is `Grid::run_streaming` minus a
//! serial `Job::run` over the same cells). Counts come from `RunReport`,
//! `ShardOutcome`, `StreamOutcome`, `ObsReport` counters,
//! `/proc/self/io`, and the counting allocator, so they are exact and
//! repeat byte for byte at any thread count; `perf/counts.json` pins them.
//!
//! Every section runs on every traced run, whichever workload the caller
//! names: the per-layer metric set is the same on each.

use crate::alloc;
use crate::harness::{self, spawn_child, Expected, Rep};
use crate::host;
use crate::json::Json;
use crate::span::{Span, Spans};
use crate::workload::{self, Workload};
use clamshell_bench::util::binary_specs;
use clamshell_core::baselines::{run_base_nr, run_base_r, run_clamshell, OpenMarketConfig};
use clamshell_core::learning::{LearningConfig, LearningRunner, Strategy};
use clamshell_core::metrics::RunReport;
use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_learn::datasets::objects::{objects, ObjectsConfig};
use clamshell_learn::eval::{accuracy, LearningCurve};
use clamshell_learn::model::{Classifier, Example, SgdConfig};
use clamshell_learn::sampling::{select_uncertain, Uncertainty};
use clamshell_learn::{Dataset, LogisticRegression, SoftmaxRegression};
use clamshell_obs::{names, ObsConfig, ObsReport};
use clamshell_scenarios::suite;
use clamshell_sim::rng::Rng;
use clamshell_sim::{EventQueue, SimDuration, SimTime};
use clamshell_stream::{source, StreamDigest};
use clamshell_sweep::job::Job;
use clamshell_sweep::shard::{run_sharded, ShardOptions};
use clamshell_sweep::{Aggregator, CancelToken, Grid};
use clamshell_trace::Population;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// A layer and the end-to-end metrics, per workload, it should move.
struct Layer {
    /// The layer (module path in the repository).
    name: &'static str,
    /// `(workload, end-to-end metric)` pairs a change here should move;
    /// every other pair is predicted not to move.
    moves: &'static [(&'static str, &'static str)],
}

/// The layers, in reporting order.
const LAYERS: &[Layer] = &[
    Layer { name: "learn", moves: &[("paper", "wall_s.t1")] },
    Layer { name: "core::learning", moves: &[("paper", "wall_s.t2")] },
    Layer { name: "bench", moves: &[("paper", "wall_s.t2")] },
    Layer {
        name: "sweep",
        moves: &[("megasweep", "wall_s.t2"), ("megasweep", "peak_rss_mb"), ("traced", "wall_s.t2")],
    },
    Layer {
        name: "sweep::shard",
        moves: &[("megasweep", "wall_s.t1"), ("megasweep", "wall_s.t2")],
    },
    Layer { name: "core::runner", moves: &[("serve", "wall_s.t1"), ("megasweep", "wall_s.t1")] },
    Layer { name: "stream", moves: &[("serve", "wall_s.t1"), ("serve", "peak_rss_mb")] },
    Layer { name: "sim", moves: &[("serve", "wall_s.t1")] },
    Layer { name: "obs", moves: &[("traced", "wall_s.t1"), ("traced", "wall_s.t2")] },
    Layer { name: "scenarios", moves: &[("traced", "wall_s.t1")] },
    Layer { name: "layers", moves: &[] },
];

/// Ring capacity of `repro --scenario --trace`: lossless for the catalog
/// cells, so every event is recorded and rendered.
const TRACE_RING: usize = 1 << 16;

/// Epochs of the learning experiments' SGD (`Figure 16`/`17`).
const EPOCHS: u32 = 15;

/// Candidate subsample of uncertainty sampling (`LearningConfig` default).
const CANDIDATES: usize = 400;

/// Tasks of the serve stream replayed with observability on.
const SERVE_OBS_TASKS: usize = 20_000;

/// The adversity experiment's base cell (`repro --scenario`).
fn adversity_base(seed: u64, obs: ObsConfig) -> RunConfig {
    RunConfig { pool_size: 8, ng: 5, seed, obs, ..Default::default() }
        .with_straggler()
        .with_maintenance()
}

/// One reported per-layer metric.
#[derive(Debug, Clone)]
struct LayerMetric {
    /// The layer it belongs to (a [`LAYERS`] name).
    layer: &'static str,
    /// Metric name.
    name: String,
    /// Value.
    value: f64,
    /// Unit.
    unit: &'static str,
    /// Exact work count (pinned by `counts.json`) rather than a timing.
    exact: bool,
}

/// Runner work summed over reports.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    tasks: u64,
    assignments: u64,
    terminated: u64,
    batches: u64,
    recruited: u64,
    evicted: u64,
}

impl Tally {
    fn add(&mut self, r: &RunReport) {
        self.tasks += r.tasks.len() as u64;
        self.assignments += r.assignments.len() as u64;
        self.terminated += r.assignments.iter().filter(|a| a.terminated).count() as u64;
        self.batches += r.batches.len() as u64;
        self.recruited += r.workers_recruited as u64;
        self.evicted += r.workers_evicted;
    }
}

/// Observability counters summed (gauges maxed) over reports.
#[derive(Debug, Default, Clone, Copy)]
struct ObsTally {
    dispatch: u64,
    checkout: u64,
    assignment_done: u64,
    queue_depth_hwm: u64,
    join: u64,
    leave: u64,
    occupancy_hwm: u64,
    recorded: u64,
    dropped: u64,
}

impl ObsTally {
    fn add(&mut self, o: &ObsReport) {
        let gauge = |name: &str| o.metrics.gauges.get(name).copied().unwrap_or(0);
        self.dispatch += o.counter(names::RUNNER_DISPATCH.as_str());
        self.checkout += o.counter(names::RUNNER_CHECKOUT.as_str());
        self.assignment_done += o.counter(names::RUNNER_ASSIGNMENT_DONE.as_str());
        self.queue_depth_hwm =
            self.queue_depth_hwm.max(gauge(names::RUNNER_QUEUE_DEPTH_HWM.as_str()));
        self.join += o.counter(names::POOL_JOIN.as_str());
        self.leave += o.counter(names::POOL_LEAVE.as_str());
        self.occupancy_hwm = self.occupancy_hwm.max(gauge(names::POOL_OCCUPANCY_HWM.as_str()));
        self.recorded += o.recorded;
        self.dropped += o.dropped;
    }
}

/// Work and time of replaying learning runs' retrain sequences.
#[derive(Debug, Default)]
struct Replay {
    retrains: u64,
    examples_fitted: u64,
    eval_predictions: u64,
    candidates_scored: u64,
}

/// The traced run's state: spans, metrics, checks and failures.
struct Layers {
    seed: u64,
    counts_only: bool,
    spans: Spans,
    metrics: Vec<LayerMetric>,
    checks: usize,
    children: usize,
    mismatches: Vec<String>,
    errors: Vec<String>,
    expected: Expected,
    work: PathBuf,
}

impl Layers {
    /// A traced run at `seed`. With `counts_only` it skips every timing-only
    /// step (child processes, engine runs) and keeps the exact counts.
    fn new(seed: u64, counts_only: bool) -> Layers {
        Layers {
            seed,
            counts_only,
            spans: Spans::new(Instant::now()),
            metrics: Vec::new(),
            checks: 0,
            children: 0,
            mismatches: Vec::new(),
            errors: Vec::new(),
            expected: Expected::load(),
            work: harness::out_dir().join("work").join(format!("layers-{}", std::process::id())),
        }
    }

    fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Layers) -> T) -> (T, f64) {
        let id = self.spans.open(name);
        let out = f(self);
        let secs = self.spans.close(id);
        (out, secs)
    }

    fn push(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        exact: bool,
    ) {
        self.metrics.push(LayerMetric { layer, name: name.into(), value, unit, exact });
    }

    fn count(&mut self, layer: &'static str, name: impl Into<String>, value: u64) {
        self.push(layer, name, value as f64, "count", true);
    }

    fn secs(&mut self, layer: &'static str, name: impl Into<String>, value: f64) {
        self.push(layer, name, value, "s", false);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Run every section; the metrics end up grouped by layer.
    fn run_all(&mut self) {
        let _ = std::fs::create_dir_all(&self.work);
        self.span("layers.hotloop", |l| l.hotloop());
        self.span("layers.paper", |l| l.paper());
        self.span("layers.megasweep", |l| l.megasweep());
        self.span("layers.serve", |l| l.serve());
        self.span("layers.traced", |l| l.traced());
        let _ = std::fs::remove_dir_all(&self.work);
        self.metrics.sort_by_key(|m| LAYERS.iter().position(|l| l.name == m.layer));
    }

    /// Children of both binaries for one workload: `reps` untraced
    /// (`perf`) and `reps` traced (this binary, counting allocator on)
    /// repetitions at 1 thread, alternating, plus one traced repetition
    /// per width in `extra_widths`. Checks that every output digest
    /// agrees, records the tracing overhead (traced over untraced 1-thread
    /// wall time, minimum of each), and returns the traced repetitions.
    fn children(&mut self, w: Workload, reps: usize, extra_widths: &[usize]) -> Vec<Rep> {
        let traced_exe = std::env::current_exe().expect("own executable path");
        let untraced_exe = traced_exe.with_file_name("perf");
        let timeout = self.expected.timeout(w);
        let seed = self.seed;
        let mut plan: Vec<(bool, usize)> =
            (0..reps).flat_map(|_| [(false, 1), (true, 1)]).collect();
        plan.extend(extra_widths.iter().map(|&t| (true, t)));
        let mut traced: Vec<Rep> = Vec::new();
        let mut untraced_walls: Vec<f64> = Vec::new();
        let mut digests: Vec<u64> = Vec::new();
        for (is_traced, threads) in plan {
            let exe = if is_traced { &traced_exe } else { &untraced_exe };
            let kind = if is_traced { "traced" } else { "untraced" };
            let start = self.spans.now();
            self.children += 1;
            let (result, _) = self.span(format!("child.{}.t{threads}.{kind}", w.name()), |l| {
                let result = spawn_child(exe, w, seed, threads, false, timeout);
                if let (true, Ok(rep)) = (is_traced, &result) {
                    l.spans.adopt(
                        &rep.report.spans,
                        start + rep.spawn_to_ready_s - rep.report.setup_s,
                    );
                }
                result
            });
            match result {
                Ok(rep) => {
                    digests.push(rep.digest);
                    if is_traced {
                        traced.push(rep);
                    } else {
                        untraced_walls.push(rep.report.wall_s);
                    }
                }
                Err(e) => self.errors.push(e),
            }
        }
        let want = if seed == harness::EXPECTED_SEED { self.expected.digest(w) } else { None };
        if let Some(&first) = digests.first() {
            let reference = want.unwrap_or(first);
            self.check(digests.iter().all(|&d| d == reference), || {
                format!("{}: child digests {digests:016x?} != {reference:016x}", w.name())
            });
        }
        let traced_walls: Vec<f64> =
            traced.iter().filter(|r| r.threads == 1).map(|r| r.report.wall_s).collect();
        if let (Some(t), Some(u)) =
            (harness::Stat::min_of(&traced_walls), harness::Stat::min_of(&untraced_walls))
        {
            self.push(
                "layers",
                format!("layers.overhead.{}", w.name()),
                t.value / u.value,
                "ratio",
                false,
            );
        }
        traced
    }

    fn runner(&mut self, w: &str, t: &Tally, runner_s: f64, allocs: u64, bytes: u64) {
        let l = "core::runner";
        self.count(l, format!("runner.tasks.{w}"), t.tasks);
        self.count(l, format!("runner.assignments.{w}"), t.assignments);
        self.count(l, format!("runner.terminated.{w}"), t.terminated);
        let useful = 1.0 - t.terminated as f64 / t.assignments as f64;
        self.push(l, format!("runner.useful_ratio.{w}"), useful, "ratio", true);
        self.count(l, format!("runner.batches.{w}"), t.batches);
        self.count(l, format!("runner.recruited.{w}"), t.recruited);
        self.count(l, format!("runner.evicted.{w}"), t.evicted);
        let per_task = |x: f64| x / t.tasks as f64;
        self.push(
            l,
            format!("runner.allocs_per_task.{w}"),
            per_task(allocs as f64),
            "allocs/task",
            true,
        );
        self.push(
            l,
            format!("runner.alloc_bytes_per_task.{w}"),
            per_task(bytes as f64),
            "B/task",
            true,
        );
        self.push(l, format!("runner.ns_per_task.{w}"), per_task(runner_s * 1e9), "ns/task", false);
    }

    fn obs_counts(&mut self, w: &str, o: &ObsTally) {
        let l = "core::runner";
        self.count(l, format!("runner.dispatch.{w}"), o.dispatch);
        self.count(l, format!("runner.checkout.{w}"), o.checkout);
        self.count(l, format!("runner.assignment_done.{w}"), o.assignment_done);
        self.count(l, format!("runner.queue_depth_hwm.{w}"), o.queue_depth_hwm);
        self.count(l, format!("pool.join.{w}"), o.join);
        self.count(l, format!("pool.leave.{w}"), o.leave);
        self.count(l, format!("pool.occupancy_hwm.{w}"), o.occupancy_hwm);
    }

    /// The `BENCH_hotloop.json` runner row: one 300-task SM+PM cell's
    /// allocation profile (2,645 calls at seed 1 when it was recorded).
    fn hotloop(&mut self) {
        let seed = self.seed;
        let cfg = move || {
            RunConfig { pool_size: 15, ng: 5, seed, ..Default::default() }
                .with_straggler()
                .with_maintenance()
        };
        let specs = || (0..300).map(|i| TaskSpec::new(vec![(i % 2) as u32; 5])).collect::<Vec<_>>();
        black_box(run_batched(cfg(), Population::mturk_live(), specs(), 15));
        let (report, calls, bytes) =
            alloc::count(|| run_batched(cfg(), Population::mturk_live(), specs(), 15));
        black_box(report);
        self.count("core::runner", "runner.hotloop.alloc_calls", calls);
        self.count("core::runner", "runner.hotloop.alloc_bytes", bytes);
    }

    /// Per experiment group and width, the fastest traced repetition's
    /// span: the four learning figures apart, every other experiment
    /// summed into `rest`.
    fn paper(&mut self) {
        const FIGS: [&str; 4] = ["fig15", "fig16", "fig17", "fig18"];
        if !self.counts_only {
            let reps = self.children(Workload::Paper, 3, &[2, 2, 2]);
            for t in harness::WIDTHS {
                for group in FIGS.into_iter().chain(["rest"]) {
                    let in_group = |name: &str| match group {
                        "rest" => !FIGS.contains(&name),
                        _ => name == group,
                    };
                    let best = reps
                        .iter()
                        .filter(|r| r.threads == t)
                        .map(|r| {
                            let top = r.report.spans.iter().filter(|s| s.parent == Some(0));
                            top.filter(|s| in_group(&s.name)).map(Span::secs).sum::<f64>()
                        })
                        .fold(f64::INFINITY, f64::min);
                    if best.is_finite() {
                        self.secs("bench", format!("bench.exp_s.{group}.t{t}"), best);
                    }
                }
            }
        }
        self.learning();
    }

    /// Figure 16's objects cells and Figure 17's three systems at the
    /// `paper` workload's scale, each run and then replayed retrain by
    /// retrain through the `learn` layer.
    fn learning(&mut self) {
        let seed = self.seed;
        let opts = workload::paper_opts(seed, 1);
        let (budget, n_items) = (opts.n(400), opts.n(1200));
        let sgd = SgdConfig { epochs: EPOCHS, ..Default::default() };
        let mut replay = Replay::default();
        let mut runs_s = 0.0;
        let ds = objects(&ObjectsConfig { n_samples: n_items, ..Default::default() }, 21);
        let strategies = [
            ("AL", Strategy::Active { k: 5 }),
            ("PL", Strategy::Passive),
            ("HL", Strategy::Hybrid { active_frac: 0.5 }),
        ];
        for (name, strategy) in strategies {
            let run_cfg = RunConfig {
                pool_size: 10,
                ng: 1,
                n_classes: ds.n_classes,
                seed,
                ..Default::default()
            }
            .with_straggler();
            let learn_cfg = LearningConfig {
                strategy,
                label_budget: budget,
                sgd,
                async_retrain: !matches!(strategy, Strategy::Active { .. }),
                seed,
                ..Default::default()
            };
            let (out, secs) = self.span(format!("learning.run.{name}"), |_| {
                LearningRunner::new(&ds, run_cfg, learn_cfg, Population::mturk_live()).run()
            });
            self.secs("core::learning", format!("learning.run_s.{name}"), secs);
            runs_s += secs;
            let active_k = (!matches!(strategy, Strategy::Passive)).then_some(5);
            self.replay(&ds, &out.curve, active_k, sgd, &mut replay);
        }
        let ds = objects(&ObjectsConfig { n_samples: n_items, ..Default::default() }, 31);
        for (name, active_k) in [("base_nr", None), ("base_r", Some(5)), ("clamshell", Some(5))] {
            let (curve, secs) = self.span(format!("learning.baseline.{name}"), |_| {
                let pop = Population::mturk_live();
                let system = match name {
                    "base_nr" => {
                        run_base_nr(&ds, pop, budget, 10, OpenMarketConfig::default(), sgd, seed)
                    }
                    "base_r" => run_base_r(&ds, pop, budget, 10, sgd, seed),
                    _ => run_clamshell(&ds, pop, budget, 10, sgd, seed),
                };
                system.curve
            });
            self.secs("core::learning", format!("learning.baseline_s.{name}"), secs);
            runs_s += secs;
            self.replay(&ds, &curve, active_k, sgd, &mut replay);
        }
        self.count("learn", "learn.retrains", replay.retrains);
        self.count("learn", "learn.examples_fitted", replay.examples_fitted);
        self.count("learn", "learn.eval_predictions", replay.eval_predictions);
        self.count("learn", "learn.candidates_scored", replay.candidates_scored);
        let (fit, eval, select) = (
            self.spans.secs("learn.fit"),
            self.spans.secs("learn.eval"),
            self.spans.secs("learn.select"),
        );
        self.secs("learn", "learn.fit_s", fit);
        self.secs("learn", "learn.eval_s", eval);
        self.secs("learn", "learn.select_s", select);
        self.secs("core::learning", "learning.crowd_s", runs_s - fit - eval - select);
    }

    /// Replay a run's retrain sequence: per curve point, fit a fresh model
    /// on as many examples as the run had labeled, evaluate it on the test
    /// split, and (for strategies that select actively) score candidates.
    /// Which rows were labeled does not change the work, only its count.
    fn replay(
        &mut self,
        ds: &Dataset,
        curve: &LearningCurve,
        active_k: Option<usize>,
        sgd: SgdConfig,
        r: &mut Replay,
    ) {
        let (train, test) = ds.split(0.3, self.seed);
        let test_labels: Vec<u32> = test.iter().map(|&row| ds.labels[row]).collect();
        let mut rng = Rng::new(self.seed);
        for point in &curve.points {
            let n = point.labels_acquired.min(train.len());
            let examples: Vec<Example> =
                train[..n].iter().map(|&row| Example::new(row, ds.labels[row])).collect();
            let mut model: Box<dyn Classifier> = if ds.n_classes == 2 {
                Box::new(LogisticRegression::new(sgd))
            } else {
                Box::new(SoftmaxRegression::new(ds.n_classes, sgd))
            };
            self.span("learn.fit", |_| model.fit(&ds.features, &examples));
            let (acc, _) = self.span("learn.eval", |_| {
                accuracy(model.as_ref(), &ds.features, &test, &test_labels)
            });
            black_box(acc);
            r.retrains += 1;
            r.examples_fitted += n as u64 * u64::from(sgd.epochs);
            r.eval_predictions += test.len() as u64;
            if let Some(k) = active_k {
                let unlabeled = &train[n..];
                let (picked, _) = self.span("learn.select", |_| {
                    select_uncertain(
                        model.as_ref(),
                        &ds.features,
                        unlabeled,
                        k,
                        CANDIDATES,
                        Uncertainty::LeastConfidence,
                        &mut rng,
                    )
                });
                black_box(picked);
                r.candidates_scored += unlabeled.len().min(CANDIDATES) as u64;
            }
        }
    }

    fn megasweep(&mut self) {
        if !self.counts_only {
            self.children(Workload::Megasweep, 2, &[]);
        }
        let grid = workload::megasweep_grid(self.seed);
        self.count("sweep", "sweep.cells", grid.n_jobs() as u64);
        let (jobs, jobs_s) = self.span("sweep.jobs", |_| grid.jobs());
        let mut agg = workload::megasweep_aggregator(&grid);
        let mut tally = Tally::default();
        let ((allocs, bytes), serial_s) = self.span("sweep.serial", |_| {
            let ((), calls, bytes) = alloc::count(|| {
                for job in &jobs {
                    let report = job.run();
                    tally.add(&report);
                    agg.consume(&grid.meta(job.index), &report);
                }
            });
            (calls, bytes)
        });
        drop(jobs);
        let reference = agg.snapshot_words();
        self.secs("sweep", "sweep.jobs_s", jobs_s);
        self.secs("sweep", "sweep.serial_s", serial_s);
        self.runner("megasweep", &tally, serial_s, allocs, bytes);

        let mut streaming_t1 = None;
        if !self.counts_only {
            let mut wall = [0.0; 2];
            for (i, threads) in harness::WIDTHS.into_iter().enumerate() {
                let mut agg = workload::megasweep_aggregator(&grid);
                let (status, secs) = self.span(format!("sweep.run_streaming.t{threads}"), |_| {
                    grid.run_streaming(Some(threads), &mut agg)
                });
                self.check(status.is_complete() && agg.snapshot_words() == reference, || {
                    format!("megasweep: run_streaming at {threads} threads disagrees with the serial fold")
                });
                wall[i] = secs;
            }
            self.secs("sweep", "sweep.engine_s.t1", wall[0] - serial_s);
            self.secs("sweep", "sweep.engine_s.t2", wall[1] - serial_s / 2.0);
            self.push("sweep", "sweep.speedup_t2", wall[0] / wall[1], "ratio", false);
            streaming_t1 = Some(wall[0]);
        }
        self.shard(&grid, &reference, streaming_t1);

        let mut cell = grid.jobs_range(0, 1).remove(0);
        cell.cfg.obs = ObsConfig::on();
        let mut obs = ObsTally::default();
        if let Some(o) = &cell.run().obs {
            obs.add(o);
        }
        self.obs_counts("megasweep", &obs);
    }

    /// Checkpoint I/O: the sharded sweep at each width, with the bytes
    /// and write calls it hands the kernel, which must not depend on the
    /// width.
    fn shard(&mut self, grid: &Grid, reference: &[u64], streaming_t1: Option<f64>) {
        let mut counts: Vec<[u64; 4]> = Vec::new();
        let mut sharded_t1 = 0.0;
        for threads in harness::WIDTHS {
            let dir = self.work.join(format!("megasweep-t{threads}"));
            let _ = std::fs::create_dir_all(&dir);
            let opts = ShardOptions {
                shard_size: workload::MEGASWEEP_SHARD,
                manifest: dir.join("megasweep.manifest.jsonl"),
                resume: false,
                threads: Some(threads),
            };
            let mut agg = workload::megasweep_aggregator(grid);
            let before = host::write_counters();
            let (outcome, secs) = self.span(format!("shard.run_sharded.t{threads}"), |_| {
                run_sharded(grid, &mut agg, &opts, &CancelToken::new(), None)
            });
            let after = host::write_counters();
            let manifest_bytes = std::fs::metadata(&opts.manifest).map(|m| m.len()).unwrap_or(0);
            let _ = std::fs::remove_dir_all(&dir);
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => return self.errors.push(format!("megasweep: run_sharded failed: {e}")),
            };
            self.check(
                outcome.is_complete()
                    && outcome.shards_completed == outcome.n_shards
                    && agg.snapshot_words() == reference,
                || format!("megasweep: the sharded fold at {threads} threads disagrees with the unsharded reference"),
            );
            let (Some((bytes0, calls0)), Some((bytes1, calls1))) = (before, after) else {
                return self.errors.push("cannot read /proc/self/io".into());
            };
            counts.push([
                outcome.shards_completed as u64,
                bytes1 - bytes0,
                calls1 - calls0,
                manifest_bytes,
            ]);
            if threads == 1 {
                sharded_t1 = secs;
            }
        }
        self.check(counts.windows(2).all(|w| w[0] == w[1]), || {
            format!("megasweep: checkpoint counts differ between widths: {counts:?}")
        });
        let [checkpoints, bytes_written, write_calls, manifest_bytes] = counts[0];
        self.count("sweep::shard", "shard.checkpoints", checkpoints);
        self.count("sweep::shard", "shard.bytes_written", bytes_written);
        self.count("sweep::shard", "shard.write_calls", write_calls);
        self.count("sweep::shard", "shard.manifest_bytes", manifest_bytes);
        if let Some(t1) = streaming_t1 {
            self.secs("sweep::shard", "shard.checkpoint_s", sharded_t1 - t1);
        }
    }

    fn serve(&mut self) {
        if !self.counts_only {
            self.children(Workload::Serve, 2, &[]);
        }
        let mut tally = Tally::default();
        let (mut allocs, mut bytes, mut checkpoints) = (0, 0, 0);
        let (mut batched_s, mut streamed_s, mut digest_s) = (0.0, 0.0, 0.0);
        for cfg in workload::serve_configs(self.seed) {
            let specs = source::alternating_specs(suite::NG as u32, workload::SERVE_TASKS);
            let ((report, calls, b), secs) = self.span("runner.run_batched", |_| {
                alloc::count(|| run_batched(cfg.clone(), suite::population(), specs, suite::BATCH))
            });
            tally.add(&report);
            (allocs, bytes, batched_s) = (allocs + calls, bytes + b, batched_s + secs);
            let (reference, secs) =
                self.span("stream.digest", |_| StreamDigest::of(&report).values());
            digest_s += secs;
            drop(report);
            let (outcome, secs) = self.span("stream.run_stream", |_| workload::serve_stream(cfg));
            streamed_s += secs;
            self.check(outcome.digest.values() == reference, || {
                "serve: the streamed digest disagrees with StreamDigest::of(run_batched)".into()
            });
            checkpoints += outcome.checkpoints.len() as u64;
        }
        self.runner("serve", &tally, batched_s, allocs, bytes);
        self.secs("stream", "stream.engine_s", streamed_s - batched_s);
        self.secs("stream", "stream.digest_s", digest_s);
        self.count("stream", "stream.checkpoints", checkpoints);

        // The replay is batched: with obs on, the stream engine re-hashes
        // the flight recorder at every checkpoint, which would dwarf the
        // run. Batched and streamed runs schedule identically, so the
        // counters are the stream's, over its first SERVE_OBS_TASKS tasks
        // (recording all 1M would take half a minute).
        let cfg =
            RunConfig { obs: ObsConfig::on(), ..workload::serve_configs(self.seed).remove(0) };
        let specs = source::alternating_specs(suite::NG as u32, SERVE_OBS_TASKS);
        let (report, _) = self.span("runner.obs_replay.serve", |_| {
            run_batched(cfg, suite::population(), specs, suite::BATCH)
        });
        let mut obs = ObsTally::default();
        if let Some(o) = &report.obs {
            obs.add(o);
        }
        drop(report);
        self.obs_counts("serve", &obs);
        let (ns, _) =
            self.span("sim.queue_hold", |_| queue_hold_ns(obs.queue_depth_hwm.max(1) as usize));
        self.push("sim", "sim.queue_hold_ns", ns, "ns", false);
    }

    fn traced(&mut self) {
        if !self.counts_only {
            self.children(Workload::Traced, 2, &[]);
        }
        let seeds: Vec<u64> = (self.seed..self.seed + workload::TRACED_SEEDS).collect();
        let specs = binary_specs(48, 5);
        let traced_base = adversity_base(self.seed, ObsConfig::with_ring(TRACE_RING));
        let grid =
            clamshell_scenarios::grid(traced_base, Population::mturk_live(), specs.clone(), 8)
                .seeds(&seeds);
        let jobs = grid.jobs();
        let ((reports, allocs, bytes), serial_s) = self.span("runner.serial.traced", |_| {
            alloc::count(|| jobs.iter().map(Job::run).collect::<Vec<_>>())
        });
        let mut tally = Tally::default();
        let mut obs = ObsTally::default();
        for r in &reports {
            tally.add(r);
            if let Some(o) = &r.obs {
                obs.add(o);
            }
        }
        self.runner("traced", &tally, serial_s, allocs, bytes);
        self.obs_counts("traced", &obs);
        self.count("obs", "obs.events_recorded", obs.recorded);
        self.count("obs", "obs.events_dropped", obs.dropped);
        self.check(obs.dropped == 0, || format!("traced: {} trace events dropped", obs.dropped));
        let (text, render_s) = self.span("obs.render", |_| {
            let mut text = String::new();
            for (job, r) in jobs.iter().zip(&reports) {
                if let Some(o) = &r.obs {
                    text.push_str(&o.render_jsonl(&job.label, job.seed));
                }
            }
            text
        });
        self.count("obs", "obs.trace_bytes", text.len() as u64);
        drop((reports, jobs));
        if self.counts_only {
            return;
        }
        self.secs("obs", "obs.render_s", render_s);
        let path = self.work.join("trace.jsonl");
        let (written, write_s) = self.span("obs.write", |_| -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            out.write_all(text.as_bytes())?;
            out.flush()
        });
        let _ = std::fs::remove_file(&path);
        if let Err(e) = written {
            self.errors.push(format!("traced: cannot write {}: {e}", path.display()));
        }
        self.secs("obs", "obs.write_s", write_s);

        // The catalog grid through the engine, one scenario at a time,
        // with the recorder off and on.
        let (mut off_s, mut on_s) = (0.0, 0.0);
        for def in clamshell_scenarios::catalog() {
            for obs in [ObsConfig::default(), ObsConfig::with_ring(TRACE_RING)] {
                let grid = Grid::new(
                    adversity_base(self.seed, obs),
                    Population::mturk_live(),
                    specs.clone(),
                    8,
                )
                .seeds(&seeds)
                .scenario(def.name, move |c| def.apply(c));
                let what = if obs.enabled { "obs.grid" } else { "scenarios.run" };
                let (run, secs) =
                    self.span(format!("{what}.{}", def.name), |_| grid.try_run_all(Some(1)));
                if let Err(e) = run {
                    self.errors.push(format!("traced: {} grid failed: {e}", def.name));
                }
                if obs.enabled {
                    on_s += secs;
                } else {
                    off_s += secs;
                    self.secs("scenarios", format!("scenarios.run_s.{}", def.name), secs);
                }
            }
        }
        self.secs("obs", "obs.record_s", on_s - off_s);
        self.push("obs", "obs.overhead_ratio", on_s / off_s, "ratio", false);
    }

    /// True when every check passed.
    fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The exact counts, as `counts.json` holds them.
    fn counts_json(&self) -> String {
        let mut counts = Json::obj();
        for m in self.metrics.iter().filter(|m| m.exact) {
            counts.set(&m.name, m.value);
        }
        Json::obj().with("seed", self.seed).with("counts", counts).render_pretty()
    }

    /// `layers.json`: the metrics grouped by layer with what each layer
    /// should move, the checks, and the host stamp.
    fn report_json(&self, hardware: Json) -> Json {
        let layers: Vec<Json> = LAYERS
            .iter()
            .map(|layer| {
                let moves: Vec<Json> = layer
                    .moves
                    .iter()
                    .map(|&(w, m)| Json::obj().with("workload", w).with("metric", m))
                    .collect();
                let mut metrics = Json::obj();
                for m in self.metrics.iter().filter(|m| m.layer == layer.name) {
                    metrics.set(
                        &m.name,
                        Json::obj()
                            .with("value", m.value)
                            .with("unit", m.unit)
                            .with("exact", m.exact),
                    );
                }
                Json::obj()
                    .with("layer", layer.name)
                    .with("moves", Json::Arr(moves))
                    .with("metrics", metrics)
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
        Json::obj()
            .with("schema", 1u64)
            .with("seed", self.seed)
            .with("hardware", hardware)
            .with("checks", self.checks)
            .with("children", self.children)
            .with("mismatches", strings(&self.mismatches))
            .with("errors", strings(&self.errors))
            .with("layers", Json::Arr(layers))
    }

    /// One human-readable line per metric, grouped by layer.
    fn print(&self) {
        for m in &self.metrics {
            println!("{:<15} {:<36} {:>16.6} {}", m.layer, m.name, m.value, m.unit);
        }
        for e in self.errors.iter().chain(&self.mismatches) {
            println!("error: {e}");
        }
    }

    /// The one-line result that ends a traced run's stdout: every per-layer
    /// metric with its unit.
    fn summary_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(&m.name, Json::obj().with("value", m.value).with("unit", m.unit));
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.checks + self.children)
            .with("failed", self.errors.len())
            .with("metrics", metrics)
            .render()
    }
}

/// The event queue's hold pattern (pop the earliest event, schedule a
/// replacement at `now + delta`) at a steady `pending` count, as
/// `BENCH_hotloop.json`'s queue rows ran it; returns ns per pop+schedule.
fn queue_hold_ns(pending: usize) -> f64 {
    const TRANSACTIONS: usize = 1 << 21;
    const DELTAS: usize = 1 << 14;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let deltas: Vec<u64> = (0..DELTAS)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 52) + 1
        })
        .collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(pending);
    for i in 0..pending {
        q.schedule(SimTime::from_millis(deltas[i % DELTAS]), i as u64);
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for t in 0..TRANSACTIONS {
        let (at, e) = q.pop().expect("the hold pattern never drains");
        sum = sum.wrapping_add(e).wrapping_add(at.as_millis());
        let d = deltas[(t + e as usize) & (DELTAS - 1)];
        q.schedule(q.now() + SimDuration::from_millis(d), e);
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / TRANSACTIONS as f64
}

/// Entry point of the `layers` binary.
pub fn main(args: &[String]) -> i32 {
    let usage = "usage: layers run [--seed S] [--workload W] [--seconds T] [--trace 1]\n       \
                 layers counts [--seed S]\n       layers child ...";
    match args.first().map(String::as_str) {
        Some("child") => workload::child_main(&args[1..]),
        Some(cmd @ ("run" | "counts")) => {
            let a = match harness::RunArgs::parse(&args[1..]) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("layers: {e}\n{usage}");
                    return 2;
                }
            };
            let counts_only = cmd == "counts";
            let hardware = host::hardware();
            let mut l = Layers::new(a.seed, counts_only);
            l.run_all();
            for e in l.errors.iter().chain(&l.mismatches) {
                eprintln!("layers: {e}");
            }
            if counts_only {
                print!("{}", l.counts_json());
                return if l.errors.is_empty() && l.correct() { 0 } else { 1 };
            }
            l.print();
            let out = harness::out_dir();
            let written = harness::write_file(
                &out.join("layers.json"),
                &l.report_json(hardware).render_pretty(),
            )
            .and_then(|()| harness::write_file(&out.join("spans.jsonl"), &l.spans.to_jsonl()));
            if let Err(e) = written {
                eprintln!("layers: {e}");
                return 1;
            }
            if !l.errors.is_empty() {
                return 1;
            }
            println!("{}", l.summary_line());
            0
        }
        _ => {
            eprintln!("{usage}");
            2
        }
    }
}
