//! Adversity: accuracy/latency/cost deltas vs the benign baseline for
//! every named scenario in the `clamshell-scenarios` catalog.
//!
//! This is the experiment the paper never ran: the same CLAMShell
//! configuration (SM on, PM8 on) driven through spammer/adversarial
//! populations, mid-assignment churn, platform blackouts, bursty
//! arrivals, and heavy-tailed inflation. Run all scenarios via
//! `repro adversity`, or a single one via `repro --scenario <name>`.
//!
//! Both modes share one driver that streams cells through the sweep
//! engine's ordered sink: each report is reduced to the table's four
//! scalars (and, with `--trace`, written out as its JSONL section), then
//! dropped, so memory does not grow with the seed count.

use crate::util::{f2, header, ratio, row, Opts};
use clamshell_core::metrics::RunReport;
use clamshell_core::RunConfig;
use clamshell_obs::ObsConfig;
use clamshell_scenarios::{catalog, find, ScenarioDef};
use clamshell_sim::json;
use clamshell_sweep::{Grid, JobMeta};
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

/// One cell's table scalars, in column order: accuracy, latency (s),
/// cost (USD), and workers departed.
type Scalars = [f64; 4];

fn scalars(r: &RunReport) -> Scalars {
    [r.accuracy(), r.total_secs(), r.cost.total_micro() as f64 / 1e6, r.workers_departed as f64]
}

/// Column means over one def's cells, summed in seed order (the same
/// arithmetic as [`crate::util::mean_of`], so the printed bytes match).
fn means(cells: &[Scalars]) -> Scalars {
    std::array::from_fn(|k| cells.iter().map(|c| c[k]).sum::<f64>() / cells.len() as f64)
}

/// Run `defs` × `opts.seeds` through the sweep engine's ordered sink.
/// Each report reaches `each(def index, seed, report)` on the calling
/// thread in job order (scenario-major, seed-minor), is reduced to its
/// [`Scalars`], and is then dropped, so the pipeline's window, not the
/// seed count, bounds the reports in memory. Returns each def's
/// per-seed scalars.
fn run_defs(
    opts: &Opts,
    defs: &[&ScenarioDef],
    obs: ObsConfig,
    mut each: impl FnMut(usize, u64, &RunReport),
) -> Vec<Vec<Scalars>> {
    let n_tasks = opts.n(48);
    let base = RunConfig { obs, ..base_config(opts.seeds[0]) };
    let mut grid =
        Grid::new(base, Population::mturk_live(), crate::util::binary_specs(n_tasks, 5), 8)
            .seeds(&opts.seeds);
    for def in defs {
        let def = **def;
        grid = grid.scenario(def.name, move |cfg| def.apply(cfg));
    }
    let mut rows = vec![Vec::with_capacity(opts.seeds.len()); defs.len()];
    // Catalog scenario labels are unique, so the grid is valid.
    grid.run_streaming(opts.threads, &mut |meta: &JobMeta, report: &RunReport| {
        rows[meta.scenario].push(scalars(report));
        each(meta.scenario, meta.seed, report);
    });
    rows
}

fn print_table(defs: &[&ScenarioDef], rows: &[Vec<Scalars>]) {
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
    let [benign_acc, benign_lat, ..] = means(&rows[benign_idx]);
    for (def, cells) in defs.iter().zip(rows) {
        let [acc, lat, cost, departed] = means(cells);
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
    let rows = run_defs(opts, &defs, ObsConfig::default(), |_, _, _| {});
    print_table(&defs, &rows);
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
fn json_rows(defs: &[&ScenarioDef], rows: &[Vec<Scalars>]) -> String {
    let mut out = String::new();
    for (i, (def, cells)) in defs.iter().zip(rows).enumerate() {
        let [acc, lat, cost, departed] = means(cells);
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "        {{\"scenario\": {}, \"accuracy\": {acc:.4}, \"latency_secs\": {lat:.3}, \
             \"cost_usd\": {cost:.4}, \"workers_departed\": {departed:.2}}}",
            json::to_string(def.name)
        ));
    }
    out
}

/// Full scenario mode: run each named scenario against the benign
/// baseline, printing text tables or (with `json`) one versioned JSON
/// document, and optionally streaming every cell's flight-recorder
/// trace to `trace` as JSONL (header line + one line per event, cells
/// in job order). Returns `Err` with a message on an unknown name.
///
/// Cells stream through [`Grid::run_streaming`]: each cell's trace
/// section is rendered into one reused buffer and written as its report
/// arrives, so memory is bounded by the sweep window, not by the seed
/// count. The engine cannot stop a run early, so the first trace write
/// error is kept, that scenario's later writes are skipped, and the
/// error is returned after its run; no later scenario runs.
pub fn scenario_mode(
    opts: &Opts,
    names: &[String],
    json: bool,
    trace: Option<&Path>,
) -> Result<(), String> {
    let mut picked: Vec<&'static ScenarioDef> = Vec::new();
    for name in names {
        picked.push(crate::experiments::find_scenario(name)?);
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
    let mut write_err: Option<String> = None;
    let mut json_sections = String::new();
    for (k, def) in picked.iter().enumerate() {
        let defs = defs_for(def);
        let rows = run_defs(opts, &defs, obs, |d, seed, report| {
            let Some(out) = trace_out.as_mut().filter(|_| write_err.is_none()) else {
                return;
            };
            let obs_report = report.obs.as_ref().expect("traced scenario runs are instrumented");
            trace_buf.clear();
            obs_report.render_jsonl_into(defs[d].name, seed, &mut trace_buf);
            if let Err(e) = out.write_all(&trace_buf) {
                write_err = Some(format!("cannot write trace: {e}"));
            }
        });
        if json {
            json_sections.push_str(if k == 0 { "\n" } else { ",\n" });
            json_sections.push_str(&format!(
                "    {{\"name\": {}, \"summary\": {}, \"rows\": [{}\n    ]}}",
                json::to_string(def.name),
                json::to_string(def.summary),
                json_rows(&defs, &rows)
            ));
        } else {
            header(&format!("scenario:{}", def.name), def.summary, def.motivation);
            print_table(&defs, &rows);
        }
        if let Some(e) = write_err {
            return Err(e);
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
        assert_eq!(
            err,
            Err("unknown scenario: definitely-not-a-scenario; try --scenario list".to_string())
        );
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
    fn trace_write_errors_are_returned() {
        // Every write to /dev/full fails, so the first buffered write's
        // error must come back from scenario_mode once the run is over.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let opts = Opts { seeds: vec![1, 2], scale: 0.05, ..Default::default() };
        let err = scenario_mode(&opts, &["churn".into(), "blackout".into()], false, Some(full))
            .unwrap_err();
        assert!(err.starts_with("cannot write trace: "), "{err}");
    }

    #[test]
    fn tracing_does_not_perturb_the_table() {
        // The text table printed with --trace must match the untraced
        // one: instrumentation draws no RNG values. print_table writes
        // to stdout, so compare the reports each cell hands the driver,
        // and the scalars the table is computed from.
        let opts = Opts { seeds: vec![1, 2], scale: 0.05, ..Default::default() };
        let defs = defs_for(find("churn").unwrap());
        let cells = |obs: ObsConfig| {
            let mut reports = Vec::new();
            let rows = run_defs(&opts, &defs, obs, |_, _, r| {
                assert_eq!(r.obs.is_some(), obs.enabled);
                let mut stripped = r.clone();
                stripped.obs = None;
                reports.push(json::to_string(&stripped));
            });
            (reports, rows)
        };
        let (plain, plain_rows) = cells(ObsConfig::default());
        let (traced, traced_rows) = cells(ObsConfig::with_ring(TRACE_RING));
        assert_eq!(plain.len(), defs.len() * opts.seeds.len());
        assert_eq!(plain, traced);
        assert_eq!(plain_rows, traced_rows);
    }
}
