//! The determinism rule catalog (D001–D007) and the cross-file engine.
//!
//! Scope: the rules protect the determinism-critical crates (everything
//! a simulation draw or report byte can flow through). `crates/bench` and
//! the linter itself are scanned, but only the crate-agnostic rules (wall
//! clock, `unsafe`, pragmas) apply to them. See ARCHITECTURE.md
//! ("Determinism contract enforcement") for the full catalog and
//! rationale.

use crate::diag::{Diagnostic, LintReport, Severity, Suppression};
use crate::discover::{FileKind, SourceSpec};
use crate::scan::Scanned;
use std::collections::{BTreeMap, BTreeSet};

/// Rule ids that an `allow(...)` pragma may name.
pub const SUPPRESSIBLE: &[&str] = &["D001", "D002", "D003", "D004", "D005", "D006", "D007"];

/// Crates whose library code must uphold the full determinism contract.
const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "sim",
    "crowd",
    "sweep",
    "stream",
    "scenarios",
    "quality",
    "trace",
    "learn",
    "obs",
    "root",
];

/// The only places allowed to read the process environment (D003):
/// thread-count resolution and the golden-master bless flag.
const ENV_INGRESS: &[&str] = &["crates/sweep/src/threads.rs", "crates/scenarios/src/golden.rs"];

/// Hot-path files where `unwrap()`/`expect()` are forbidden (D006): the
/// discrete-event runner, the whole sweep engine, and the streaming
/// service engine.
fn is_hot_path(rel: &str) -> bool {
    rel == "crates/core/src/runner.rs"
        || rel == "crates/stream/src/engine.rs"
        || rel.starts_with("crates/sweep/src/")
}

/// A `fault_stream` / `fork` label argument found at a call site.
enum LabelArg {
    /// Integer literal, already parsed.
    Value(u64),
    /// A path whose final segment should name an integer-literal const.
    Named(String),
}

struct LabelSite {
    file: String,
    line: usize,
    label: LabelArg,
    /// `true` for `fault_stream` (joins the global-uniqueness pool),
    /// `false` for `Rng::fork` (namespaced by its parent stream).
    global: bool,
    /// Reason from a D004 pragma covering this site, if any.
    allow: Option<(usize, String)>,
}

/// A `MetricName(` / `EventName(` constructor site whose argument was a
/// plain string literal; metric and event names share one uniqueness
/// pool (a metric may not shadow an event discriminator or vice versa).
struct NameSite {
    file: String,
    line: usize,
    value: String,
    /// Reason from a D007 pragma covering this site, if any.
    allow: Option<(usize, String)>,
}

pub struct Engine {
    diags: Vec<Diagnostic>,
    suppressed: Vec<Suppression>,
    /// (file, pragma line) pairs that suppressed at least one finding.
    used_pragmas: BTreeSet<(String, usize)>,
    /// Every well-formed pragma seen: (file, line, rule).
    all_pragmas: Vec<(String, usize, String)>,
    /// Integer-literal consts: final segment name -> observed values.
    consts: BTreeMap<String, BTreeSet<u64>>,
    label_sites: Vec<LabelSite>,
    name_sites: Vec<NameSite>,
    files_scanned: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        Engine {
            diags: Vec::new(),
            suppressed: Vec::new(),
            used_pragmas: BTreeSet::new(),
            all_pragmas: Vec::new(),
            consts: BTreeMap::new(),
            label_sites: Vec::new(),
            name_sites: Vec::new(),
            files_scanned: 0,
        }
    }

    pub fn check_file(&mut self, spec: &SourceSpec, scanned: &Scanned) {
        self.files_scanned += 1;
        let rel = &spec.rel;
        for p in &scanned.pragmas {
            self.all_pragmas.push((rel.clone(), p.line, p.rule.clone()));
        }
        for issue in &scanned.issues {
            self.diags.push(Diagnostic {
                file: rel.clone(),
                line: issue.line,
                rule: issue.rule,
                severity: Severity::Warning,
                message: issue.message.clone(),
                hint: "pragma syntax: // clamshell-lint: allow(<rule>) -- <reason>",
            });
        }

        let det = DETERMINISTIC_CRATES.contains(&spec.crate_key.as_str());
        let sanctioned_env = ENV_INGRESS.contains(&rel.as_str());
        let hot = is_hot_path(rel);

        for (idx, line) in scanned.lines.iter().enumerate() {
            let no = idx + 1;
            // "Library region": non-test code compiled into the crate's
            // product (lib or example), not a test/bench source.
            let lib = line.region == crate::scan::Region::Lib
                && matches!(spec.kind, FileKind::Lib | FileKind::Examples);
            let code = line.code.as_str();

            if det && lib && matches!(spec.kind, FileKind::Lib) {
                if has_token(code, "HashMap") || has_token(code, "HashSet") {
                    self.emit(
                        spec,
                        scanned,
                        no,
                        "D001",
                        "HashMap/HashSet in deterministic library code".into(),
                        "hash iteration order varies between runs; use BTreeMap/BTreeSet or a \
                         sorted Vec",
                    );
                }
                if !sanctioned_env && reads_env(code) {
                    self.emit(
                        spec,
                        scanned,
                        no,
                        "D003",
                        "process-environment read outside the sanctioned ingress points".into(),
                        "only sweep::threads and scenarios::golden may consult the environment",
                    );
                }
                self.check_labels(spec, scanned, no);
                self.check_names(spec, scanned, no);
            }

            if lib && (has_token(code, "Instant::now") || has_token(code, "SystemTime::now")) {
                self.emit(
                    spec,
                    scanned,
                    no,
                    "D002",
                    "wall-clock read in library code".into(),
                    "wall-clock time breaks replay determinism; timing belongs in perf/",
                );
            }

            if has_token(code, "unsafe") && !scanned.has_safety_comment(no) {
                self.emit(
                    spec,
                    scanned,
                    no,
                    "D005",
                    "unsafe block without a SAFETY comment".into(),
                    "document the invariant in a `// SAFETY:` comment directly above the block",
                );
            }

            if hot && lib {
                let unwraps = count_occurrences(code, ".unwrap()");
                let poison = count_occurrences(code, "lock().unwrap()");
                if unwraps > poison || code.contains(".expect(") {
                    self.emit(
                        spec,
                        scanned,
                        no,
                        "D006",
                        "unwrap()/expect() in hot-path library code".into(),
                        "return a structured error, or justify the invariant with an allow \
                         pragma (bare `lock().unwrap()` poison propagation is exempt)",
                    );
                }
            }

            collect_consts(code, &mut self.consts);
        }
    }

    /// D004 per-line half: find `fault_stream(` / `.fork(` call sites
    /// and classify their label argument. Cross-file resolution and the
    /// uniqueness check happen in [`Engine::finalize`].
    fn check_labels(&mut self, spec: &SourceSpec, scanned: &Scanned, no: usize) {
        let code = scanned.lines[no - 1].code.as_str();
        for (open, global, arg_index) in call_sites(code, "fault_stream(")
            .into_iter()
            .map(|c| (c, true, 1usize))
            .chain(call_sites(code, ".fork(").into_iter().map(|c| (c, false, 0usize)))
        {
            let Some(args) = call_args(scanned, no - 1, open) else {
                self.emit(
                    spec,
                    scanned,
                    no,
                    "D004",
                    "RNG stream call whose arguments could not be parsed".into(),
                    D004_HINT,
                );
                continue;
            };
            let Some(arg) = args.get(arg_index) else {
                self.emit(
                    spec,
                    scanned,
                    no,
                    "D004",
                    "RNG stream call is missing its label argument".into(),
                    D004_HINT,
                );
                continue;
            };
            let label = if let Some(v) = parse_int(arg) {
                LabelArg::Value(v)
            } else if is_const_path(arg) {
                LabelArg::Named(arg.rsplit("::").next().unwrap_or(arg).to_string())
            } else {
                let what = if global { "fault_stream" } else { "fork" };
                self.emit(
                    spec,
                    scanned,
                    no,
                    "D004",
                    format!("{what} label `{arg}` is not a literal or named constant"),
                    D004_HINT,
                );
                continue;
            };
            let allow = scanned.suppressor(no, "D004").map(|p| (p.line, p.reason.clone()));
            self.label_sites.push(LabelSite {
                file: spec.rel.clone(),
                line: no,
                label,
                global,
                allow,
            });
        }
    }

    /// D007 per-line half: `MetricName(` / `EventName(` constructor
    /// sites must take a plain string literal on the same line. The
    /// literal value is read from the *raw* source (blanking erased it);
    /// sites are pooled for the workspace-wide uniqueness check in
    /// [`Engine::finalize`].
    fn check_names(&mut self, spec: &SourceSpec, scanned: &Scanned, no: usize) {
        let line = &scanned.lines[no - 1];
        for callee in ["MetricName(", "EventName("] {
            let code_sites = call_sites(line.code.as_str(), callee);
            if code_sites.is_empty() {
                continue;
            }
            let raw_sites = call_sites(line.raw.as_str(), callee);
            let kind = &callee[..callee.len() - 1];
            if raw_sites.len() != code_sites.len() {
                // A comment or string on the same line also mentions the
                // constructor; refuse to guess which occurrence is which.
                self.emit(
                    spec,
                    scanned,
                    no,
                    "D007",
                    format!("{kind} call site is ambiguous on this line"),
                    D007_HINT,
                );
                continue;
            }
            for open in raw_sites {
                match leading_str_literal(&line.raw[open..]) {
                    Some(value) => {
                        let allow =
                            scanned.suppressor(no, "D007").map(|p| (p.line, p.reason.clone()));
                        self.name_sites.push(NameSite {
                            file: spec.rel.clone(),
                            line: no,
                            value,
                            allow,
                        });
                    }
                    None => self.emit(
                        spec,
                        scanned,
                        no,
                        "D007",
                        format!("{kind} argument is not a plain same-line string literal"),
                        D007_HINT,
                    ),
                }
            }
        }
    }

    /// Emit `rule` at `line` unless an allow pragma suppresses it.
    /// Severity is a property of the rule itself: D005/D006 warn,
    /// every other determinism rule is an error.
    fn emit(
        &mut self,
        spec: &SourceSpec,
        scanned: &Scanned,
        line: usize,
        rule: &'static str,
        message: String,
        hint: &'static str,
    ) {
        let severity =
            if rule == "D005" || rule == "D006" { Severity::Warning } else { Severity::Error };
        if let Some(p) = scanned.suppressor(line, rule) {
            self.used_pragmas.insert((spec.rel.clone(), p.line));
            self.suppressed.push(Suppression {
                file: spec.rel.clone(),
                line,
                rule,
                reason: p.reason.clone(),
            });
        } else {
            self.diags.push(Diagnostic {
                file: spec.rel.clone(),
                line,
                rule,
                severity,
                message,
                hint,
            });
        }
    }

    /// Like [`Engine::emit`] but for finalize-time findings (D004/D007
    /// cross-file checks), where the suppressing pragma was already
    /// resolved at scan time.
    fn emit_resolved(
        &mut self,
        file: &str,
        line: usize,
        allow: &Option<(usize, String)>,
        rule: &'static str,
        message: String,
        hint: &'static str,
    ) {
        if let Some((pline, reason)) = allow {
            self.used_pragmas.insert((file.to_string(), *pline));
            self.suppressed.push(Suppression {
                file: file.to_string(),
                line,
                rule,
                reason: reason.clone(),
            });
        } else {
            self.diags.push(Diagnostic {
                file: file.to_string(),
                line,
                rule,
                severity: Severity::Error,
                message,
                hint,
            });
        }
    }

    fn emit_site(&mut self, site: &LabelSite, message: String) {
        self.emit_resolved(&site.file, site.line, &site.allow, "D004", message, D004_HINT);
    }

    pub fn finalize(mut self) -> LintReport {
        // Resolve named labels against the workspace const table.
        let sites = std::mem::take(&mut self.label_sites);
        let mut resolved: Vec<(u64, usize)> = Vec::new(); // (value, site index)
        for (i, site) in sites.iter().enumerate() {
            let value = match &site.label {
                LabelArg::Value(v) => Some(*v),
                LabelArg::Named(name) => match self.consts.get(name) {
                    Some(vals) if vals.len() == 1 => vals.iter().next().copied(),
                    Some(_) => {
                        self.emit_site(
                            site,
                            format!("stream label const `{name}` has conflicting definitions"),
                        );
                        None
                    }
                    None => {
                        self.emit_site(
                            site,
                            format!(
                                "stream label `{name}` does not resolve to an integer-literal \
                                 const in the workspace"
                            ),
                        );
                        None
                    }
                },
            };
            if let (Some(v), true) = (value, site.global) {
                resolved.push((v, i));
            }
        }
        // Global uniqueness across fault_stream call sites.
        let mut by_value: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (v, i) in resolved {
            by_value.entry(v).or_default().push(i);
        }
        for (value, group) in by_value {
            if group.len() < 2 {
                continue;
            }
            let locations: Vec<String> =
                group.iter().map(|&i| format!("{}:{}", sites[i].file, sites[i].line)).collect();
            for (gi, &i) in group.iter().enumerate() {
                let others: Vec<&str> = locations
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != gi)
                    .map(|(_, l)| l.as_str())
                    .collect();
                self.emit_site(
                    &sites[i],
                    format!(
                        "fault stream label {value:#x} is also used at {} — shared labels \
                         silently correlate their draws",
                        others.join(", ")
                    ),
                );
            }
        }
        // D007 cross-file half: metric/event name literals must be
        // unique workspace-wide, so two subsystems can never silently
        // write to the same registry key or `"ev"` discriminator.
        let name_sites = std::mem::take(&mut self.name_sites);
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, site) in name_sites.iter().enumerate() {
            by_name.entry(site.value.as_str()).or_default().push(i);
        }
        for (value, group) in by_name {
            if group.len() < 2 {
                continue;
            }
            let locations: Vec<String> = group
                .iter()
                .map(|&i| format!("{}:{}", name_sites[i].file, name_sites[i].line))
                .collect();
            for (gi, &i) in group.iter().enumerate() {
                let others: Vec<&str> = locations
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != gi)
                    .map(|(_, l)| l.as_str())
                    .collect();
                let site = &name_sites[i];
                self.emit_resolved(
                    &site.file,
                    site.line,
                    &site.allow,
                    "D007",
                    format!(
                        "metric/event name \"{value}\" is also declared at {} — shared names \
                         silently merge unrelated instrumentation",
                        others.join(", ")
                    ),
                    D007_HINT,
                );
            }
        }
        // Pragmas that never fired keep the allowlist honest.
        for (file, line, rule) in &self.all_pragmas {
            if !self.used_pragmas.contains(&(file.clone(), *line)) {
                self.diags.push(Diagnostic {
                    file: file.clone(),
                    line: *line,
                    rule: "P003",
                    severity: Severity::Warning,
                    message: format!("allow({rule}) pragma never matched a violation"),
                    hint: "remove the stale pragma (or it will mask a future regression)",
                });
            }
        }
        self.diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        LintReport {
            diagnostics: self.diags,
            suppressed: self.suppressed,
            files_scanned: self.files_scanned,
        }
    }
}

const D004_HINT: &str = "stream labels must be integer literals or named literal consts so \
                         uniqueness is statically checkable";

const D007_HINT: &str = "metric/trace-event names must be `&'static str` literals declared once \
                         (see crates/obs/src/name.rs) so uniqueness is statically checkable";

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Does `code` contain `tok` with non-identifier characters (or the
/// line boundary) on both sides? `tok` itself may contain `::`.
fn has_token(code: &str, tok: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(tok) {
        let i = start + pos;
        let left_ok = i == 0 || !is_ident_char(bytes[i - 1]);
        let j = i + tok.len();
        let right_ok = j >= bytes.len() || !is_ident_char(bytes[j]);
        if left_ok && right_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

fn count_occurrences(code: &str, pat: &str) -> usize {
    code.matches(pat).count()
}

fn reads_env(code: &str) -> bool {
    [
        "std::env",
        "env::var",
        "env::vars",
        "env::var_os",
        "env::args",
        "env::args_os",
        "env::set_var",
        "env::remove_var",
    ]
    .iter()
    .any(|t| has_token(code, t))
}

/// Offsets just past the opening parenthesis of each call of `callee`
/// (which must end with `(`). Function and tuple-struct definitions
/// (`fn name(`, `struct Name(`) are skipped. Patterns starting with `.`
/// are method calls and need no left-boundary check (the receiver
/// legitimately precedes them).
fn call_sites(code: &str, callee: &str) -> Vec<usize> {
    let method = callee.starts_with('.');
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(callee) {
        let i = start + pos;
        let left_ok = method || i == 0 || !is_ident_char(bytes[i - 1]);
        let before = code[..i].trim_end();
        let is_def = before.ends_with("fn") || before.ends_with("struct");
        if left_ok && !is_def {
            out.push(i + callee.len());
        }
        start = i + 1;
    }
    out
}

/// Parse `"<value>")` at the start of `s` (leading whitespace allowed):
/// a plain string literal immediately closed by the call's `)`. Returns
/// the raw text between the quotes.
fn leading_str_literal(s: &str) -> Option<String> {
    let rest = s.trim_start().strip_prefix('"')?;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                let after = rest[i + 1..].trim_start();
                return after.starts_with(')').then(|| rest[..i].to_string());
            }
            _ => i += 1,
        }
    }
    None
}

/// Top-level comma-split of the arguments of a call whose opening paren
/// sits just before `open` in line `li` (0-based). Joins continuation
/// lines; rustfmt never spreads these calls past a handful of lines.
fn call_args(scanned: &Scanned, li: usize, open: usize) -> Option<Vec<String>> {
    let mut buf = String::new();
    for (k, line) in scanned.lines.iter().enumerate().skip(li).take(8) {
        if k == li {
            buf.push_str(&line.code[open..]);
        } else {
            buf.push(' ');
            buf.push_str(&line.code);
        }
        let mut depth = 1i32;
        let mut args = Vec::new();
        let mut cur = String::new();
        for ch in buf.chars() {
            match ch {
                '(' | '[' => {
                    depth += 1;
                    cur.push(ch);
                }
                ')' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        args.push(cur.trim().to_string());
                        return Some(args);
                    }
                    cur.push(ch);
                }
                ',' if depth == 1 => {
                    args.push(cur.trim().to_string());
                    cur.clear();
                }
                _ => cur.push(ch),
            }
        }
    }
    None
}

/// Parse a Rust integer literal (decimal / hex / octal / binary, with
/// `_` separators and an optional unsigned suffix).
fn parse_int(tok: &str) -> Option<u64> {
    let mut t = tok.trim().replace('_', "");
    for suffix in ["u64", "u32", "usize", "u16", "u8"] {
        if let Some(stripped) = t.strip_suffix(suffix) {
            t = stripped.to_string();
            break;
        }
    }
    let t = t.trim();
    if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else if let Some(o) = t.strip_prefix("0o") {
        u64::from_str_radix(o, 8).ok()
    } else if let Some(b) = t.strip_prefix("0b") {
        u64::from_str_radix(b, 2).ok()
    } else {
        t.parse().ok()
    }
}

/// `STREAM_X`, `streams::CHURN`, `Self::LABEL` — a plain path with no
/// operators (a bare variable also matches; it is rejected later when it
/// fails to resolve to a const).
fn is_const_path(tok: &str) -> bool {
    !tok.is_empty()
        && tok.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Record `const NAME: <int type> = <int literal>;` declarations.
fn collect_consts(code: &str, out: &mut BTreeMap<String, BTreeSet<u64>>) {
    let mut rest = code;
    while let Some(pos) = rest.find("const ") {
        let boundary = pos == 0 || !is_ident_char(rest.as_bytes()[pos - 1]);
        let after = &rest[pos + "const ".len()..];
        rest = after;
        if !boundary {
            continue;
        }
        let name: String =
            after.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if name.is_empty() {
            continue;
        }
        let tail = &after[name.len()..];
        let Some(eq) = tail.find('=') else { continue };
        if !tail[..eq].contains(':') {
            continue;
        }
        let value_src = tail[eq + 1..].split(';').next().unwrap_or("");
        if let Some(v) = parse_int(value_src) {
            out.entry(name).or_default().insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("struct MyHashMapWrapper;", "HashMap"));
        assert!(has_token("let t = Instant::now();", "Instant::now"));
        assert!(!has_token("instant_now()", "Instant::now"));
        assert!(has_token("std::env::var(X)", "env::var"));
        assert!(
            !has_token("env::var_os(X)", "env::var") || has_token("env::var_os(X)", "env::var_os")
        );
    }

    #[test]
    fn int_literals() {
        assert_eq!(parse_int("0xC0DE_0001"), Some(0xC0DE_0001));
        assert_eq!(parse_int(" 42u64 "), Some(42));
        assert_eq!(parse_int("0b1010"), Some(10));
        assert_eq!(parse_int("seed + 1"), None);
        assert_eq!(parse_int("LABEL"), None);
    }

    #[test]
    fn const_paths() {
        assert!(is_const_path("STREAM_X"));
        assert!(is_const_path("streams::CHURN"));
        assert!(!is_const_path("id.0 as u64"));
        assert!(!is_const_path("seed + 1"));
        assert!(!is_const_path("0xAB"));
    }

    #[test]
    fn const_collection() {
        let mut map = BTreeMap::new();
        collect_consts("pub const STREAM_A: u64 = 0xA2C4_0001;", &mut map);
        collect_consts("    pub const CHURN: u64 = 0xC0DE_0001;", &mut map);
        collect_consts("const NAME: &str = \" \";", &mut map);
        assert_eq!(map.get("STREAM_A").map(|s| s.len()), Some(1));
        assert!(map.get("STREAM_A").is_some_and(|s| s.contains(&0xA2C4_0001)));
        assert!(map.contains_key("CHURN"));
        assert!(!map.contains_key("NAME"));
    }

    #[test]
    fn str_literals() {
        assert_eq!(leading_str_literal("\"runner.checkout\")"), Some("runner.checkout".into()));
        assert_eq!(leading_str_literal("  \"x\" )"), Some("x".into()));
        assert_eq!(leading_str_literal("\"a\\\"b\")"), Some("a\\\"b".into()));
        assert_eq!(leading_str_literal("name)"), None, "variable is not a literal");
        assert_eq!(leading_str_literal("\"x\".trim())"), None, "literal must close the call");
        assert_eq!(leading_str_literal("concat!(\"a\", \"b\"))"), None);
    }

    #[test]
    fn call_site_skips_tuple_struct_definition() {
        assert!(call_sites("pub struct MetricName(pub &'static str);", "MetricName(").is_empty());
        assert_eq!(call_sites("MetricName(\"x\")", "MetricName(").len(), 1);
    }

    #[test]
    fn call_site_skips_definition() {
        assert!(call_sites("pub fn fault_stream(seed: u64, label: u64) -> Rng {", "fault_stream(")
            .is_empty());
        assert_eq!(call_sites("let r = fault_stream(seed, LABEL);", "fault_stream(").len(), 1);
        assert_eq!(
            call_sites("clamshell_sim::faults::fault_stream(s, L)", "fault_stream(").len(),
            1
        );
        assert_eq!(call_sites("let rng = self.rng.fork(id.0 as u64);", ".fork(").len(), 1);
        assert!(call_sites("pub fn fork(&mut self, label: u64) -> Rng {", ".fork(").is_empty());
    }
}
