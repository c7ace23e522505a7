//! In-memory spans around the harness's calls into each layer.
//!
//! A span records its name, start, end and the span that was open when it
//! started. Spans stay in memory and are written out once, at exit, so
//! recording costs two clock reads and a push.

use crate::json::Json;
use std::time::Instant;

/// One closed (or still open) span; times are seconds since the
/// recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed, e.g. `sweep.serial` or `fig16`.
    pub name: String,
    /// Start, seconds since the origin.
    pub start_s: f64,
    /// End, seconds since the origin.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the span in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The span as one JSON object (`id` is its index in the recorder).
    pub fn to_json(&self, id: usize) -> Json {
        Json::obj()
            .with("id", id)
            .with("name", self.name.as_str())
            .with("start_s", self.start_s)
            .with("end_s", self.end_s)
            .with("parent", self.parent.map_or(Json::Null, Json::from))
    }

    /// Inverse of [`Span::to_json`] (the id is implied by position).
    pub fn from_json(j: &Json) -> Option<Span> {
        Some(Span {
            name: j.get("name")?.as_str()?.to_string(),
            start_s: j.get("start_s")?.as_f64()?,
            end_s: j.get("end_s")?.as_f64()?,
            parent: j.get("parent")?.as_f64().map(|p| p as usize),
        })
    }
}

/// The span recorder: a flat list plus the stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span named `name` under the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_s = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.into(), start_s, end_s: start_s, parent });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its length.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_s = self.now();
        self.spans[id].secs()
    }

    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Record a closed span from `start` to `end` under `parent`, for
    /// work timed on another thread, and return its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let secs = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let span = Span { name: name.into(), start_s: secs(start), end_s: secs(end), parent };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Adopt spans recorded elsewhere (a child process) under the
    /// currently open span, shifting their clock by `offset_s`.
    pub fn adopt(&mut self, spans: &[Span], offset_s: f64) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                start_s: s.start_s + offset_s,
                end_s: s.end_s + offset_s,
                parent: s.parent.map(|p| p + base).or(parent),
            });
        }
    }

    /// Every span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of all spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// One JSON line per span.
    pub fn to_jsonl(&self) -> String {
        self.spans.iter().enumerate().map(|(i, s)| s.to_json(i).render() + "\n").collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut sp = Spans::new(Instant::now());
        sp.time("outer", |sp| {
            sp.time("inner", |_| ());
            sp.time("inner", |_| ());
        });
        let names: Vec<(&str, Option<usize>)> =
            sp.all().iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]);
        assert!(sp.secs("outer") >= sp.secs("inner"));
    }

    #[test]
    fn recorded_spans_keep_their_times_and_parent() {
        let origin = Instant::now();
        let mut sp = Spans::new(origin);
        let root = sp.open("workload");
        assert_eq!(sp.current(), Some(root));
        let at = |ms| origin + std::time::Duration::from_millis(ms);
        let lane = sp.record("stream.0", at(10), at(30), sp.current());
        sp.record("tasks.0", at(10), at(20), Some(lane));
        sp.close(root);
        let all = sp.all();
        assert_eq!((all[1].parent, all[2].parent), (Some(root), Some(lane)));
        assert!((all[2].start_s - 0.010).abs() < 1e-9 && (all[2].secs() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let child = vec![
            Span { name: "run".into(), start_s: 0.5, end_s: 2.0, parent: None },
            Span { name: "fig16".into(), start_s: 0.6, end_s: 1.0, parent: Some(0) },
        ];
        let mut sp = Spans::new(Instant::now());
        sp.time("paper", |sp| sp.adopt(&child, 10.0));
        let all = sp.all();
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert!((all[2].start_s - 10.6).abs() < 1e-9);
        let back: Vec<Span> =
            all.iter().enumerate().filter_map(|(i, s)| Span::from_json(&s.to_json(i))).collect();
        assert_eq!(back, all);
    }
}
