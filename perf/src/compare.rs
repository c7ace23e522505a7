//! `perf compare A.json B.json`: judge run set B against baseline A, per
//! workload and end-to-end metric, by the bounds the benchmark fixes.

use crate::harness::E2E;
use crate::json::Json;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Regression,
    /// A side's own min..max spread exceeds the bound, so the pair cannot
    /// be judged (unless every B sample beats every A sample).
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Side {
    value: f64,
    min: f64,
    max: f64,
}

impl Side {
    fn of(metric: &Json) -> Option<Side> {
        let value = metric.get("value")?.as_f64()?;
        let min = metric.get("min").and_then(Json::as_f64).unwrap_or(value);
        let max = metric.get("max").and_then(Json::as_f64).unwrap_or(value);
        Some(Side { value, min, max })
    }

    fn spread(&self) -> f64 {
        (self.max - self.min) / self.value
    }
}

/// Judge one lower-is-better metric of B against A.
fn judge(a: &Side, b: &Side, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        if b.max < a.min {
            return Verdict::Better;
        }
        return Verdict::Unresolved;
    }
    let delta = (b.value - a.value) / a.value;
    if delta > bound {
        Verdict::Regression
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compare two `results.json` documents. Returns the printed report and
/// the number of regressions (a worse metric or a higher `fail_ratio`).
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0;
    let empty = Json::obj();
    let workloads = |doc: &Json| doc.get("workloads").cloned().unwrap_or_else(|| empty.clone());
    let (wa, wb) = (workloads(a), workloads(b));
    out.push_str(&format!(
        "{:<10} {:<12} {:>11} {:>11} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "delta", "bound"
    ));
    for (name, ea) in wa.fields() {
        let Some(eb) = wb.get(name) else {
            out.push_str(&format!("{name:<10} missing from B\n"));
            continue;
        };
        for m in E2E {
            let side = |e: &Json| e.get("metrics").and_then(|ms| ms.get(m.name)).and_then(Side::of);
            let (Some(sa), Some(sb)) = (side(ea), side(eb)) else {
                out.push_str(&format!("{name:<10} {:<12} missing on one side\n", m.name));
                continue;
            };
            let verdict = judge(&sa, &sb, m.bound);
            regressions += (verdict == Verdict::Regression) as usize;
            out.push_str(&format!(
                "{name:<10} {:<12} {:>11.4} {:>11.4} {:>+7.1}% {:>5.0}%  {}\n",
                m.name,
                sa.value,
                sb.value,
                100.0 * (sb.value - sa.value) / sa.value,
                100.0 * m.bound,
                verdict.label()
            ));
        }
        let fail = |e: &Json| {
            e.get("metrics")
                .and_then(|ms| ms.get("fail_ratio"))
                .and_then(|f| f.get("value"))
                .and_then(Json::as_f64)
        };
        let (fa, fb) = (fail(ea).unwrap_or(0.0), fail(eb).unwrap_or(0.0));
        let worse = fb > fa;
        regressions += worse as usize;
        out.push_str(&format!(
            "{name:<10} {:<12} {fa:>11.4} {fb:>11.4} {:>8} {:>6}  {}\n",
            "fail_ratio",
            "",
            "",
            if worse { "REGRESSION" } else { "same" }
        ));
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: f64, min: f64, max: f64, fail: f64) -> Json {
        let metric = |v: f64| Json::obj().with("value", v).with("min", v).with("max", v);
        let metrics = Json::obj()
            .with("wall_s.t1", Json::obj().with("value", wall).with("min", min).with("max", max))
            .with("wall_s.t2", metric(1.0))
            .with("setup_s", metric(0.002))
            .with("peak_rss_mb", metric(50.0))
            .with("fail_ratio", Json::obj().with("value", fail));
        Json::obj()
            .with("workloads", Json::obj().with("serve", Json::obj().with("metrics", metrics)))
    }

    #[test]
    fn flags_regressions_beyond_the_bound_only() {
        let base = doc(1.0, 1.0, 1.0, 0.0);
        assert_eq!(compare(&base, &doc(1.01, 1.01, 1.01, 0.0)).1, 0);
        let (report, n) = compare(&base, &doc(1.5, 1.5, 1.5, 0.0));
        assert_eq!(n, 1, "{report}");
        assert!(report.contains("REGRESSION"));
        assert_eq!(compare(&base, &doc(1.0, 1.0, 1.0, 0.1)).1, 1, "a higher fail_ratio regresses");
    }

    #[test]
    fn wide_spreads_are_unresolved_not_regressions() {
        let base = doc(1.0, 1.0, 1.6, 0.0);
        let (report, n) = compare(&base, &doc(1.5, 1.5, 1.5, 0.0));
        assert_eq!(n, 0);
        assert!(report.contains("unresolved"), "{report}");
    }
}
