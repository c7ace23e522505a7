//! Flight recorder: a bounded ring buffer of structured runner events.
//!
//! The recorder never grows past its configured capacity: when full, the
//! oldest event is evicted and counted in `dropped`, so long enabled
//! runs stay bounded-memory while the tail — the part you want when a
//! run panics or an invariant trips — is always retained. Sequence
//! numbers are global (they keep counting across drops), so a trace
//! consumer can tell exactly which prefix is missing.

use std::collections::VecDeque;

use clamshell_sim::json::ToJson;

use crate::name::{names, EventName, MetricName};

/// One structured runner event. All ids are raw (`WorkerId.0`,
/// `TaskId.0`, `AssignmentId.0`) so this crate stays dependency-light;
/// all times are simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A pooled worker left `Waiting` and started work; `waited_ms` is
    /// the retainer time paid for.
    Checkout { worker: u32, waited_ms: u64 },
    /// The runner routed a task to a worker.
    Dispatch { worker: u32, task: u32, assignment: u32 },
    /// An assignment completed and was recorded.
    AssignmentDone { worker: u32, task: u32, assignment: u32, span_ms: u64 },
    /// A worker abandoned mid-assignment (churn walkout).
    Walkout { worker: u32, task: u32, assignment: u32 },
    /// A reserve worker's patience expired before being used.
    ReserveTimeout { worker: u32 },
    /// A pooled worker from an old generation was retired at dispatch.
    StaleRetired { worker: u32 },
    /// The maintainer evicted a low-performing pooled worker.
    MaintenanceEvict { worker: u32 },
    /// A platform outage deferred event delivery until `resume_ms`.
    OutageDefer { resume_ms: u64 },
    /// Simulation time passed the end of an outage window.
    OutageResume,
    /// A worker joined the retainer pool; `occupancy` is the pool size
    /// immediately after.
    PoolJoin { worker: u32, occupancy: u64 },
    /// A worker left the retainer pool; `occupancy` is the pool size
    /// immediately after.
    PoolLeave { worker: u32, occupancy: u64 },
}

impl TraceKind {
    /// The JSONL `"ev"` discriminator for this event.
    pub fn event_name(&self) -> EventName {
        match self {
            TraceKind::Checkout { .. } => names::EV_CHECKOUT,
            TraceKind::Dispatch { .. } => names::EV_DISPATCH,
            TraceKind::AssignmentDone { .. } => names::EV_ASSIGNMENT_DONE,
            TraceKind::Walkout { .. } => names::EV_WALKOUT,
            TraceKind::ReserveTimeout { .. } => names::EV_RESERVE_TIMEOUT,
            TraceKind::StaleRetired { .. } => names::EV_STALE_RETIRED,
            TraceKind::MaintenanceEvict { .. } => names::EV_MAINTENANCE_EVICT,
            TraceKind::OutageDefer { .. } => names::EV_OUTAGE_DEFER,
            TraceKind::OutageResume => names::EV_OUTAGE_RESUME,
            TraceKind::PoolJoin { .. } => names::EV_POOL_JOIN,
            TraceKind::PoolLeave { .. } => names::EV_POOL_LEAVE,
        }
    }

    /// The registry counter incremented once per recorded event.
    pub fn counter(&self) -> MetricName {
        KIND_COUNTERS[self.index()]
    }

    /// Number of event kinds ([`Self::index`] is always `< COUNT`).
    pub const COUNT: usize = 11;

    /// Dense kind index — lets the observer keep per-kind counters in a
    /// flat array on the hot path instead of a map lookup per event.
    pub fn index(&self) -> usize {
        match self {
            TraceKind::Checkout { .. } => 0,
            TraceKind::Dispatch { .. } => 1,
            TraceKind::AssignmentDone { .. } => 2,
            TraceKind::Walkout { .. } => 3,
            TraceKind::ReserveTimeout { .. } => 4,
            TraceKind::StaleRetired { .. } => 5,
            TraceKind::MaintenanceEvict { .. } => 6,
            TraceKind::OutageDefer { .. } => 7,
            TraceKind::OutageResume => 8,
            TraceKind::PoolJoin { .. } => 9,
            TraceKind::PoolLeave { .. } => 10,
        }
    }

    /// The variant's numeric payload, widened to `u64`, in
    /// [`Self::field_keys`] order. The JSONL renderer writes each value
    /// beside its key and the trace fingerprint hashes them: together
    /// with [`Self::index`] this is exactly the information the
    /// rendered line carries.
    pub fn field_values(&self) -> ([u64; 4], usize) {
        match *self {
            TraceKind::Checkout { worker, waited_ms } => ([worker.into(), waited_ms, 0, 0], 2),
            TraceKind::Dispatch { worker, task, assignment }
            | TraceKind::Walkout { worker, task, assignment } => {
                ([worker.into(), task.into(), assignment.into(), 0], 3)
            }
            TraceKind::AssignmentDone { worker, task, assignment, span_ms } => {
                ([worker.into(), task.into(), assignment.into(), span_ms], 4)
            }
            TraceKind::ReserveTimeout { worker }
            | TraceKind::StaleRetired { worker }
            | TraceKind::MaintenanceEvict { worker } => ([worker.into(), 0, 0, 0], 1),
            TraceKind::OutageDefer { resume_ms } => ([resume_ms, 0, 0, 0], 1),
            TraceKind::OutageResume => ([0, 0, 0, 0], 0),
            TraceKind::PoolJoin { worker, occupancy }
            | TraceKind::PoolLeave { worker, occupancy } => ([worker.into(), occupancy, 0, 0], 2),
        }
    }

    /// The JSONL keys of [`Self::field_values`], in the same order: the
    /// renderer writes one `,"key":value` pair per entry.
    pub fn field_keys(&self) -> &'static [&'static str] {
        FIELD_KEYS[self.index()]
    }
}

/// Field keys aligned with [`TraceKind::index`] (see
/// [`TraceKind::field_keys`]).
const FIELD_KEYS: [&[&str]; TraceKind::COUNT] = [
    &["worker", "waited_ms"],
    &["worker", "task", "assignment"],
    &["worker", "task", "assignment", "span_ms"],
    &["worker", "task", "assignment"],
    &["worker"],
    &["worker"],
    &["worker"],
    &["resume_ms"],
    &[],
    &["worker", "occupancy"],
    &["worker", "occupancy"],
];

/// Counter names aligned with [`TraceKind::index`].
pub const KIND_COUNTERS: [MetricName; TraceKind::COUNT] = [
    names::RUNNER_CHECKOUT,
    names::RUNNER_DISPATCH,
    names::RUNNER_ASSIGNMENT_DONE,
    names::RUNNER_WALKOUT,
    names::RUNNER_RESERVE_TIMEOUT,
    names::RUNNER_STALE_RETIRED,
    names::RUNNER_MAINTENANCE_EVICT,
    names::RUNNER_OUTAGE_DEFER,
    names::RUNNER_OUTAGE_RESUME,
    names::POOL_JOIN,
    names::POOL_LEAVE,
];

/// A recorded event: global sequence number + sim-time millisecond stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub at_ms: u64,
    pub kind: TraceKind,
}

/// An event has one JSON form: its trace line
/// ([`render_event_into`](crate::trace::render_event_into)).
impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        out.push_str(&crate::trace::render_event(self));
    }
}

/// The bounded ring buffer.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "flight recorder capacity must be >= 1");
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            next_seq: 0,
            dropped: 0,
        }
    }

    pub fn record(&mut self, at_ms: u64, kind: TraceKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { seq: self.next_seq, at_ms, kind });
        self.next_seq += 1;
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, including dropped ones.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &TraceEvent> {
        self.events.iter()
    }

    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: u32) -> TraceKind {
        TraceKind::ReserveTimeout { worker }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(i * 10, ev(i as u32));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 0);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraps_dropping_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10 {
            r.record(i, ev(i as u32));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 7);
        // The tail survives; sequence numbers expose the gap.
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(r.dropped() + r.len() as u64, r.recorded());
    }

    #[test]
    fn capacity_one_keeps_only_latest() {
        let mut r = FlightRecorder::new(1);
        r.record(1, ev(1));
        r.record(2, ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().map(|e| e.seq), Some(1));
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        FlightRecorder::new(0);
    }
}
