//! The per-run observer owned by an enabled `Runner`, and the
//! serializable [`ObsReport`] it collapses into at `finish()`.

use std::io::Write;

use clamshell_sim::time::SimTime;
use serde::Serialize;

use crate::config::ObsConfig;
use crate::name::{names, MetricName};
use crate::recorder::{FlightRecorder, TraceEvent, TraceKind, KIND_COUNTERS};
use crate::registry::{Histogram, HistogramSnapshot, MetricsSnapshot};
use crate::registry::{OCCUPANCY_BOUNDS, QUEUE_DEPTH_BOUNDS, SPAN_BOUNDS_MS};
use crate::trace::{self, TRACE_SCHEMA_VERSION};

/// Live observability state for one run: the flight recorder plus the
/// metrics aggregated from the events it records. Constructed only when
/// `ObsConfig.enabled`; the disabled path holds `None` and costs one
/// branch per instrumentation point.
///
/// The per-event counters and histograms live in flat fields (array
/// index / bucket scan, no map lookup) so an enabled run stays cheap on
/// the hot path; they become the ordered [`MetricsSnapshot`] once, at
/// [`RunObserver::into_report`].
#[derive(Debug, Clone)]
pub struct RunObserver {
    pub recorder: FlightRecorder,
    /// Per-kind event counts, indexed by [`TraceKind::index`].
    kind_counts: [u64; TraceKind::COUNT],
    /// Assignment-span histogram (`runner.assignment_span_ms`).
    span: Histogram,
    /// Ready-queue depth histogram (`runner.queue_depth`).
    queue_depth: Histogram,
    /// Ready-queue high-water mark (`runner.queue_depth_hwm`).
    queue_depth_hwm: u64,
    /// Queue-depth samples taken (0 = the gauge/histogram never existed).
    queue_samples: u64,
    /// Pool occupancy after each join and leave (`pool.occupancy`).
    occupancy: Histogram,
    /// Largest occupancy a join or leave reported (`pool.occupancy_hwm`).
    occupancy_hwm: u64,
}

impl RunObserver {
    pub fn new(cfg: &ObsConfig) -> Self {
        cfg.validate();
        RunObserver {
            recorder: FlightRecorder::new(cfg.ring_capacity),
            kind_counts: [0; TraceKind::COUNT],
            span: Histogram::new(SPAN_BOUNDS_MS),
            queue_depth: Histogram::new(QUEUE_DEPTH_BOUNDS),
            queue_depth_hwm: 0,
            queue_samples: 0,
            occupancy: Histogram::new(OCCUPANCY_BOUNDS),
            occupancy_hwm: 0,
        }
    }

    /// Record a structured event: appends to the ring, bumps the
    /// matching counter, and feeds the latency histogram for
    /// `AssignmentDone` and the occupancy histogram and high-water mark
    /// for `PoolJoin`/`PoolLeave`.
    pub fn record(&mut self, at: SimTime, kind: TraceKind) {
        self.kind_counts[kind.index()] += 1;
        match kind {
            TraceKind::AssignmentDone { span_ms, .. } => self.span.observe(span_ms),
            TraceKind::PoolJoin { occupancy, .. } | TraceKind::PoolLeave { occupancy, .. } => {
                self.occupancy.observe(occupancy);
                self.occupancy_hwm = self.occupancy_hwm.max(occupancy);
            }
            _ => {}
        }
        self.recorder.record(at.as_millis(), kind);
    }

    /// Sample the ready-queue depth (histogram + high-water gauge).
    pub fn note_queue_depth(&mut self, depth: u64) {
        self.queue_samples += 1;
        self.queue_depth.observe(depth);
        if depth > self.queue_depth_hwm {
            self.queue_depth_hwm = depth;
        }
    }

    /// The run's metrics, from the flat hot-path state: a counter per
    /// recorded event kind, the span and queue-depth histograms once
    /// observed, and the pool metrics, which are written even at zero.
    fn metrics(&self) -> MetricsSnapshot {
        let key = |name: MetricName| name.as_str().to_string();
        let mut m = MetricsSnapshot::default();
        for (&name, &n) in KIND_COUNTERS.iter().zip(&self.kind_counts) {
            if n > 0 {
                m.counters.insert(key(name), n);
            }
        }
        if self.span.total() > 0 {
            m.histograms.insert(key(names::RUNNER_ASSIGNMENT_SPAN_MS), self.span.snapshot());
        }
        if self.queue_samples > 0 {
            m.histograms.insert(key(names::RUNNER_QUEUE_DEPTH), self.queue_depth.snapshot());
            m.gauges.insert(key(names::RUNNER_QUEUE_DEPTH_HWM), self.queue_depth_hwm);
        }
        // Every checkout is checked in exactly once (the runner's
        // `finish` drains the pool), so check-ins are the checkout count.
        let checkouts = self.kind_counts[TraceKind::Checkout { worker: 0, waited_ms: 0 }.index()];
        m.counters.insert(key(names::POOL_CHECKIN), checkouts);
        m.gauges.insert(key(names::POOL_OCCUPANCY_HWM), self.occupancy_hwm);
        m.histograms.insert(key(names::POOL_OCCUPANCY), self.occupancy.snapshot());
        m
    }

    /// Collapse into the serializable report that rides on `RunReport`.
    pub fn into_report(self) -> ObsReport {
        let recorded = self.recorder.recorded();
        let dropped = self.recorder.dropped();
        let fingerprint = trace::fingerprint_events(self.recorder.iter());
        ObsReport {
            schema: TRACE_SCHEMA_VERSION,
            metrics: self.metrics(),
            events: self.recorder.into_events(),
            recorded,
            dropped,
            fingerprint,
        }
    }

    /// Dump the retained ring to `out` as a JSONL section. Used on
    /// panic/invariant failure so the tail of the run is never lost.
    pub fn dump(&self, scenario: &str, seed: u64, out: &mut dyn Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        trace::render_section_into(
            &mut buf,
            scenario,
            seed,
            self.recorder.iter(),
            self.recorder.recorded(),
            self.recorder.dropped(),
            trace::fingerprint_events(self.recorder.iter()),
        );
        out.write_all(&buf)
    }
}

/// The serializable observability report attached to `RunReport` when
/// obs is enabled (`None` otherwise, keeping disabled reports
/// byte-identical to pre-obs builds).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObsReport {
    /// Trace schema version the events were recorded under.
    pub schema: u32,
    pub metrics: MetricsSnapshot,
    /// Retained flight-recorder tail, oldest first.
    pub events: Vec<TraceEvent>,
    /// Total events recorded, including any evicted from the ring.
    pub recorded: u64,
    /// Events evicted to keep the ring bounded.
    pub dropped: u64,
    /// FNV-1a over the structured event stream (see
    /// [`trace::fingerprint_events`]); pins the rendered JSONL too,
    /// since rendering is a pure function of the hashed fields.
    pub fingerprint: u64,
}

impl ObsReport {
    /// Append this report's full JSONL section (header + events) to
    /// `out`; exporters reuse one buffer across sections.
    pub fn render_jsonl_into(&self, scenario: &str, seed: u64, out: &mut Vec<u8>) {
        trace::render_section_into(
            out,
            scenario,
            seed,
            self.events.iter(),
            self.recorded,
            self.dropped,
            self.fingerprint,
        );
    }

    /// Render this report's full JSONL section (header + events).
    pub fn render_jsonl(&self, scenario: &str, seed: u64) -> String {
        let mut out = Vec::new();
        self.render_jsonl_into(scenario, seed, &mut out);
        String::from_utf8(out).expect("trace JSONL is UTF-8")
    }

    /// Count of retained events matching an `"ev"` discriminator.
    pub fn event_count(&self, name: &str) -> u64 {
        self.events.iter().filter(|e| e.kind.event_name().as_str() == name).count() as u64
    }

    /// Convenience accessor for a counter in the embedded snapshot.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience accessor for a histogram in the embedded snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.histograms.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer() -> RunObserver {
        RunObserver::new(&ObsConfig::on())
    }

    #[test]
    fn record_updates_ring_and_counters() {
        let mut obs = observer();
        obs.record(
            SimTime::from_millis(10),
            TraceKind::Dispatch { worker: 1, task: 2, assignment: 3 },
        );
        obs.record(
            SimTime::from_millis(500),
            TraceKind::AssignmentDone { worker: 1, task: 2, assignment: 3, span_ms: 490 },
        );
        assert_eq!(obs.recorder.len(), 2);
        let report = obs.into_report();
        assert_eq!(report.counter(names::RUNNER_DISPATCH.as_str()), 1);
        assert_eq!(report.counter(names::RUNNER_ASSIGNMENT_DONE.as_str()), 1);
        let hist =
            report.histogram(names::RUNNER_ASSIGNMENT_SPAN_MS.as_str()).expect("span histogram");
        assert_eq!(hist.counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn report_roundtrip_preserves_order_and_fingerprint() {
        let mut obs = observer();
        for i in 0..4 {
            obs.record(
                SimTime::from_millis(i * 100),
                TraceKind::ReserveTimeout { worker: i as u32 },
            );
        }
        obs.note_queue_depth(3);
        let report = obs.into_report();
        assert_eq!(report.schema, TRACE_SCHEMA_VERSION);
        assert_eq!(report.recorded, 4);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.counter("runner.reserve_timeout"), 4);
        assert_eq!(report.event_count("reserve_timeout"), 4);
        assert_eq!(report.fingerprint, trace::fingerprint_events(report.events.iter()));
        let jsonl = report.render_jsonl("unit", 1);
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.starts_with("{\"v\":1,\"stream\":\"clamshell-trace\""));
    }

    #[test]
    fn pool_metrics_derive_from_pool_events() {
        let mut obs = observer();
        let at = SimTime::from_millis(1);
        obs.record(at, TraceKind::PoolJoin { worker: 0, occupancy: 1 });
        obs.record(at, TraceKind::PoolJoin { worker: 1, occupancy: 1_000_000 });
        obs.record(at, TraceKind::Checkout { worker: 0, waited_ms: 0 });
        obs.record(at, TraceKind::PoolLeave { worker: 1, occupancy: 1 });
        let report = obs.into_report();
        assert_eq!(report.counter(names::POOL_CHECKIN.as_str()), 1);
        assert_eq!(report.metrics.gauges[names::POOL_OCCUPANCY_HWM.as_str()], 1_000_000);
        let hist = report.histogram(names::POOL_OCCUPANCY.as_str()).expect("occupancy histogram");
        assert_eq!(hist.counts[1], 2, "two samples of occupancy 1");
        assert_eq!(*hist.counts.last().unwrap(), 1, "overflow bucket");
        assert_eq!(hist.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn pool_metrics_exist_at_zero() {
        let report = observer().into_report();
        assert_eq!(report.metrics.counters.get(names::POOL_CHECKIN.as_str()), Some(&0));
        assert_eq!(report.metrics.gauges.get(names::POOL_OCCUPANCY_HWM.as_str()), Some(&0));
        let hist = report.histogram(names::POOL_OCCUPANCY.as_str()).expect("occupancy histogram");
        assert_eq!(hist.bounds, OCCUPANCY_BOUNDS);
        assert!(hist.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn dump_writes_header_plus_events() {
        let mut obs = observer();
        obs.record(SimTime::from_millis(5), TraceKind::OutageResume);
        let mut buf = Vec::new();
        obs.dump("panic-test", 9, &mut buf).expect("dump to vec");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"scenario\":\"panic-test\""));
        assert!(lines[1].contains("\"ev\":\"outage_resume\""));
    }
}
