//! `perf`: the end-to-end benchmark.
//!
//! ```text
//! perf run [--workload W]... [--seed S] [--seconds T] [--out PATH]
//! perf layers [--seed S]            # the traced run: execs `layers run`
//! perf run --trace 1 [--seed S]     # the same
//! perf compare A.json B.json
//! ```

use clamshell_perf::harness::{self, Expected, RunArgs};
use clamshell_perf::json::Json;
use clamshell_perf::{compare, host, workload};
use std::path::Path;
use std::time::Duration;

const USAGE: &str =
    "usage: perf run [--workload W]... [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
       perf layers [--seed S]
       perf compare A.json B.json

run measures each workload (paper, megasweep, serve, traced; default all)
for T seconds (default 30): set-up probes, then 1- and 2-thread repetitions,
each in a fresh child process. It prints every end-to-end metric with its
unit, writes results.json, and with one workload ends with a one-line JSON
result. layers (or run --trace 1) is the traced per-layer run, in the
`layers` binary; it writes layers.json and spans.jsonl. Set
CLAMSHELL_BLESS=1 at seed 1 to rewrite perf/expected.json.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("layers") => layers(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("child") => workload::child_main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let a = match RunArgs::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return 2;
        }
    };
    if a.trace {
        return layers(args);
    }
    let exe = std::env::current_exe().expect("own executable path");

    let hardware = host::hardware();
    let expected = Expected::load();
    let budget = Duration::from_secs(a.seconds);
    let mut workloads = Json::obj();
    let mut measured = Vec::new();
    for &w in &a.workloads {
        let m = harness::measure(&exe, w, a.seed, budget, &expected);
        harness::print_metrics(&m);
        workloads.set(w.name(), harness::workload_json(&m));
        measured.push(m);
    }
    let results = Json::obj()
        .with("schema", 1u64)
        .with("seed", a.seed)
        .with("seconds", a.seconds)
        .with("hardware", hardware)
        .with("workloads", workloads);
    if let Err(e) = harness::write_file(&a.out, &results.render_pretty()) {
        eprintln!("perf: {e}");
        return 1;
    }
    if std::env::var("CLAMSHELL_BLESS").is_ok_and(|v| !v.is_empty()) {
        if let Err(e) = bless(&measured) {
            eprintln!("perf: {e}");
            return 1;
        }
    }
    match measured.as_slice() {
        [m] => match harness::summary_line(m) {
            Some(line) => {
                println!("{line}");
                0
            }
            None => {
                eprintln!("perf: {} has no successful repetition at some width", m.workload.name());
                1
            }
        },
        all => i32::from(!all.iter().all(|m| m.correct() && m.errors.is_empty())),
    }
}

/// `layers ARGS`: the traced per-layer run, in the `layers` binary beside
/// this one (the only one with the counting allocator).
fn layers(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path").with_file_name("layers");
    match std::process::Command::new(&exe).arg("run").args(args).status() {
        Ok(status) => status.code().unwrap_or(1),
        Err(e) => {
            eprintln!("perf: cannot run {}: {e} (build both binaries first)", exe.display());
            1
        }
    }
}

/// Rewrite `perf/expected.json` with the measured digests and 1-thread
/// medians (seed 1 only), keeping entries for workloads not measured.
fn bless(measured: &[harness::Measured]) -> Result<(), String> {
    let path = harness::committed("expected.json");
    let old = harness::read_json(&path).unwrap_or_else(|_| Json::obj());
    let mut workloads = old.get("workloads").cloned().unwrap_or_else(Json::obj);
    for m in measured {
        if m.seed != harness::EXPECTED_SEED || !m.errors.is_empty() || !m.correct() {
            return Err(format!(
                "refusing to bless {}: needs a clean run at seed 1",
                m.workload.name()
            ));
        }
        let t1: Vec<f64> =
            m.reps.iter().filter(|r| r.threads == 1).map(|r| r.report.wall_s).collect();
        let digest = m.digest().ok_or("no digest to bless")?;
        let entry = Json::obj()
            .with("digest", format!("{digest:016x}"))
            .with("median_s", harness::median(&t1));
        if let Json::Obj(fields) = &mut workloads {
            fields.retain(|(k, _)| k != m.workload.name());
        }
        workloads.set(m.workload.name(), entry);
    }
    let doc = Json::obj().with("seed", harness::EXPECTED_SEED).with("workloads", workloads);
    harness::write_file(&path, &doc.render_pretty())
}

fn compare_files(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let docs =
        harness::read_json(Path::new(a)).and_then(|a| Ok((a, harness::read_json(Path::new(b))?)));
    match docs {
        Ok((a, b)) => {
            let (report, regressions) = compare::compare(&a, &b);
            print!("{report}");
            i32::from(regressions > 0)
        }
        Err(e) => {
            eprintln!("perf: {e}");
            2
        }
    }
}
