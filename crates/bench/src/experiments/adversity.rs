//! Adversity: accuracy/latency/cost deltas vs the benign baseline for
//! every named scenario in the `clamshell-scenarios` catalog.
//!
//! This is the experiment the paper never ran: the same CLAMShell
//! configuration (SM on, PM8 on) driven through spammer/adversarial
//! populations, mid-assignment churn, platform blackouts, bursty
//! arrivals, and heavy-tailed inflation. Run all scenarios via
//! `repro adversity`, or a single one via `repro --scenario <name>`.

use crate::util::{f2, header, mean_of, ratio, row, Opts};
use clamshell_core::metrics::RunReport;
use clamshell_core::RunConfig;
use clamshell_obs::{json_str, ObsConfig};
use clamshell_scenarios::{catalog, find, ScenarioDef};
use clamshell_sweep::Grid;
use clamshell_trace::Population;
use std::io::Write;
use std::path::Path;

fn base_config(seed: u64) -> RunConfig {
    RunConfig { pool_size: 8, ng: 5, seed, ..Default::default() }
        .with_straggler()
        .with_maintenance()
}

/// Ring capacity for `--trace` captures: lossless for scenario-mode
/// workloads, so the streamed JSONL is the complete event record.
const TRACE_RING: usize = 1 << 16;

fn run_defs_with(opts: &Opts, defs: &[&ScenarioDef], obs: ObsConfig) -> Vec<Vec<RunReport>> {
    let n_tasks = opts.n(48);
    let base = RunConfig { obs, ..base_config(opts.seeds[0]) };
    let mut grid =
        Grid::new(base, Population::mturk_live(), crate::util::binary_specs(n_tasks, 5), 8)
            .seeds(&opts.seeds);
    for def in defs {
        let def = **def;
        grid = grid.scenario(def.name, move |cfg| def.apply(cfg));
    }
    let flat = grid.try_run_all(opts.threads).expect("catalog scenario labels are unique");
    // Enumeration is scenario-major, seed-minor: rows are seed chunks.
    flat.chunks(opts.seeds.len()).map(<[RunReport]>::to_vec).collect()
}

fn run_defs(opts: &Opts, defs: &[&ScenarioDef]) -> Vec<Vec<RunReport>> {
    run_defs_with(opts, defs, ObsConfig::default())
}

fn print_table(defs: &[&ScenarioDef], grouped: &[Vec<RunReport>]) {
    row(&[
        "scenario".into(),
        "accuracy".into(),
        "d.acc".into(),
        "latency_s".into(),
        "d.lat".into(),
        "cost_usd".into(),
        "departed".into(),
    ]);
    let benign_idx = defs.iter().position(|d| d.name == "benign").unwrap_or(0);
    let benign_acc = mean_of(&grouped[benign_idx], |r| r.accuracy());
    let benign_lat = mean_of(&grouped[benign_idx], |r| r.total_secs());
    for (def, reports) in defs.iter().zip(grouped) {
        let acc = mean_of(reports, |r| r.accuracy());
        let lat = mean_of(reports, |r| r.total_secs());
        let cost = mean_of(reports, |r| r.cost.total_micro() as f64 / 1e6);
        let departed = mean_of(reports, |r| r.workers_departed as f64);
        row(&[
            def.name.into(),
            f2(acc),
            format!("{:+.2}", acc - benign_acc),
            f2(lat),
            ratio(lat, benign_lat),
            f2(cost),
            f2(departed),
        ]);
    }
}

/// The full catalog sweep (`repro adversity`).
pub fn adversity(opts: &Opts) {
    header(
        "adversity",
        "Scenario library: accuracy/latency deltas vs the benign baseline",
        "not in the paper; motivated by Krishna et al. (rapid-worker error) and \
         Muhammadi et al. (spammer/adversarial crowds)",
    );
    let defs: Vec<&ScenarioDef> = catalog().iter().collect();
    let grouped = run_defs(opts, &defs);
    print_table(&defs, &grouped);
    println!(
        "  expectation: adversarial/spammers cut accuracy; blackout/heavy-tail/sleepy \
         stretch latency; churn departs workers; benign deltas are zero by definition"
    );
}

/// The baseline-plus-scenario def list `--scenario <name>` runs.
fn defs_for(def: &'static ScenarioDef) -> Vec<&'static ScenarioDef> {
    if def.name == "benign" {
        vec![def]
    } else {
        vec![find("benign").expect("catalog always has benign"), def]
    }
}

/// One scenario's structured comparison rows (the JSON analogue of
/// [`print_table`]). Fixed decimal formatting keeps the rendering
/// byte-stable at any thread count.
fn json_rows(defs: &[&ScenarioDef], grouped: &[Vec<RunReport>]) -> String {
    let mut out = String::new();
    for (i, (def, reports)) in defs.iter().zip(grouped).enumerate() {
        let acc = mean_of(reports, |r| r.accuracy());
        let lat = mean_of(reports, |r| r.total_secs());
        let cost = mean_of(reports, |r| r.cost.total_micro() as f64 / 1e6);
        let departed = mean_of(reports, |r| r.workers_departed as f64);
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "        {{\"scenario\": {}, \"accuracy\": {acc:.4}, \"latency_secs\": {lat:.3}, \
             \"cost_usd\": {cost:.4}, \"workers_departed\": {departed:.2}}}",
            json_str(def.name)
        ));
    }
    out
}

/// Full scenario mode: run each named scenario against the benign
/// baseline, printing text tables or (with `json`) one versioned JSON
/// document, and optionally streaming every cell's flight-recorder
/// trace to `trace` as JSONL (header line + one line per event, cells
/// in job order). Returns `Err` with a message on an unknown name.
pub fn scenario_mode(
    opts: &Opts,
    names: &[String],
    json: bool,
    trace: Option<&Path>,
) -> Result<(), String> {
    let mut picked: Vec<&'static ScenarioDef> = Vec::new();
    for name in names {
        picked.push(find(name).ok_or_else(|| format!("unknown scenario: {name}"))?);
    }
    // Tracing needs instrumented runs; plain table modes must stay
    // byte-identical to the uninstrumented harness, so obs is off there.
    let obs = match trace {
        Some(_) => ObsConfig::with_ring(TRACE_RING),
        None => ObsConfig::default(),
    };
    let mut trace_out: Option<std::io::BufWriter<std::fs::File>> = trace
        .map(|p| {
            std::fs::File::create(p)
                .map(std::io::BufWriter::new)
                .map_err(|e| format!("cannot create trace file {}: {e}", p.display()))
        })
        .transpose()?;
    // One section buffer for the whole trace export, reused per cell.
    let mut trace_buf = Vec::new();
    let mut json_sections = String::new();
    for (k, def) in picked.iter().enumerate() {
        let defs = defs_for(def);
        let grouped = run_defs_with(opts, &defs, obs);
        if json {
            json_sections.push_str(if k == 0 { "\n" } else { ",\n" });
            json_sections.push_str(&format!(
                "    {{\"name\": {}, \"summary\": {}, \"rows\": [{}\n    ]}}",
                json_str(def.name),
                json_str(def.summary),
                json_rows(&defs, &grouped)
            ));
        } else {
            header(&format!("scenario:{}", def.name), def.summary, def.motivation);
            print_table(&defs, &grouped);
        }
        if let Some(out) = trace_out.as_mut() {
            for (d, reports) in defs.iter().zip(&grouped) {
                for (report, &seed) in reports.iter().zip(&opts.seeds) {
                    let obs_report =
                        report.obs.as_ref().expect("traced scenario runs are instrumented");
                    trace_buf.clear();
                    obs_report.render_jsonl_into(d.name, seed, &mut trace_buf);
                    out.write_all(&trace_buf).map_err(|e| format!("cannot write trace: {e}"))?;
                }
            }
        }
    }
    if let Some(mut out) = trace_out {
        out.flush().map_err(|e| format!("cannot flush trace: {e}"))?;
    }
    if json {
        let seeds: Vec<String> = opts.seeds.iter().map(u64::to_string).collect();
        print!(
            "{{\n  \"version\": 1,\n  \"report\": \"scenario\",\n  \"seeds\": [{}],\n  \
             \"scenarios\": [{}\n  ]\n}}\n",
            seeds.join(", "),
            json_sections
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scenario_rejects_unknown_names() {
        let opts = Opts { seeds: vec![1], scale: 0.05, ..Default::default() };
        let names = |name: &str| vec![name.to_string()];
        let err = scenario_mode(&opts, &names("definitely-not-a-scenario"), false, None);
        assert_eq!(err, Err("unknown scenario: definitely-not-a-scenario".to_string()));
        assert_eq!(scenario_mode(&opts, &names("churn"), false, None), Ok(()));
    }

    #[test]
    fn catalog_sweep_runs_at_tiny_scale() {
        let opts = Opts { seeds: vec![1], scale: 0.05, ..Default::default() };
        adversity(&opts);
    }

    #[test]
    fn scenario_mode_rejects_unknown_names_before_running() {
        let opts = Opts { seeds: vec![1], scale: 0.05, ..Default::default() };
        let err = scenario_mode(&opts, &["churn".into(), "nope".into()], false, None).unwrap_err();
        assert!(err.contains("unknown scenario: nope"), "{err}");
    }

    #[test]
    fn scenario_trace_is_complete_and_thread_invariant() {
        let dir = std::env::temp_dir();
        let p1 = dir.join("clamshell_scenario_trace_t1.jsonl");
        let p4 = dir.join("clamshell_scenario_trace_t4.jsonl");
        let mk = |threads: usize| Opts { seeds: vec![1, 2], scale: 0.05, threads: Some(threads) };
        scenario_mode(&mk(1), &["churn".into()], false, Some(&p1)).unwrap();
        scenario_mode(&mk(4), &["churn".into()], false, Some(&p4)).unwrap();
        let a = std::fs::read_to_string(&p1).unwrap();
        let b = std::fs::read_to_string(&p4).unwrap();
        assert_eq!(a, b, "trace JSONL must be byte-identical across thread counts");
        // 2 defs (benign + churn) x 2 seeds = 4 cells, each opening with
        // a schema-versioned header line.
        let headers: Vec<&str> =
            a.lines().filter(|l| l.contains("\"stream\":\"clamshell-trace\"")).collect();
        assert_eq!(headers.len(), 4);
        assert!(headers[0].starts_with("{\"v\":1,"));
        assert!(a.lines().all(|l| l.starts_with("{\"v\":1,") && l.ends_with('}')));
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p4);
    }

    #[test]
    fn tracing_does_not_perturb_the_table() {
        // The text table printed with --trace must match the untraced
        // one: instrumentation draws no RNG values. print_table writes
        // to stdout, so compare the underlying reports instead.
        let opts = Opts { seeds: vec![1], scale: 0.05, ..Default::default() };
        let defs = defs_for(find("churn").unwrap());
        let plain = run_defs(&opts, &defs);
        let traced = run_defs_with(&opts, &defs, clamshell_obs::ObsConfig::with_ring(TRACE_RING));
        for (a, b) in plain.iter().flatten().zip(traced.iter().flatten()) {
            assert!(b.obs.is_some() && a.obs.is_none());
            let mut stripped = b.clone();
            stripped.obs = None;
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(&stripped).unwrap()
            );
        }
    }
}
