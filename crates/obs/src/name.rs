//! Static metric and trace-event names.
//!
//! Every name in the workspace is declared exactly once, here, as a
//! `const`. Lint rule D007 enforces the contract: `MetricName(..)` /
//! `EventName(..)` constructor calls must take a plain string literal on
//! the same line, and the literal values must be unique workspace-wide —
//! so instrumentation sites reference these consts rather than re-typing
//! strings, and two subsystems can never silently share a name.

use serde::{Deserialize, Serialize};

/// Key for a counter, gauge, or histogram in a [`MetricsSnapshot`].
///
/// [`MetricsSnapshot`]: crate::MetricsSnapshot
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricName(pub &'static str);

impl MetricName {
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

/// The `"ev"` discriminator of a JSONL trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventName(pub &'static str);

impl EventName {
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

/// The single workspace-wide name registry.
pub mod names {
    use super::{EventName, MetricName};

    // Runner event counters (incremented once per recorded trace event).
    pub const RUNNER_CHECKOUT: MetricName = MetricName("runner.checkout");
    pub const RUNNER_DISPATCH: MetricName = MetricName("runner.dispatch");
    pub const RUNNER_ASSIGNMENT_DONE: MetricName = MetricName("runner.assignment_done");
    pub const RUNNER_WALKOUT: MetricName = MetricName("runner.walkout");
    pub const RUNNER_RESERVE_TIMEOUT: MetricName = MetricName("runner.reserve_timeout");
    pub const RUNNER_STALE_RETIRED: MetricName = MetricName("runner.stale_retired");
    pub const RUNNER_MAINTENANCE_EVICT: MetricName = MetricName("runner.maintenance_evict");
    pub const RUNNER_OUTAGE_DEFER: MetricName = MetricName("runner.outage_defer");
    pub const RUNNER_OUTAGE_RESUME: MetricName = MetricName("runner.outage_resume");

    // Runner distributions.
    pub const RUNNER_ASSIGNMENT_SPAN_MS: MetricName = MetricName("runner.assignment_span_ms");
    pub const RUNNER_QUEUE_DEPTH: MetricName = MetricName("runner.queue_depth");
    pub const RUNNER_QUEUE_DEPTH_HWM: MetricName = MetricName("runner.queue_depth_hwm");

    // Retainer-pool state transitions, derived from the `PoolJoin`,
    // `PoolLeave` and `Checkout` events.
    pub const POOL_JOIN: MetricName = MetricName("pool.join");
    pub const POOL_LEAVE: MetricName = MetricName("pool.leave");
    pub const POOL_CHECKIN: MetricName = MetricName("pool.checkin");
    pub const POOL_OCCUPANCY: MetricName = MetricName("pool.occupancy");
    pub const POOL_OCCUPANCY_HWM: MetricName = MetricName("pool.occupancy_hwm");

    // Trace-event discriminators (the `"ev"` field in JSONL lines).
    pub const EV_CHECKOUT: EventName = EventName("checkout");
    pub const EV_DISPATCH: EventName = EventName("dispatch");
    pub const EV_ASSIGNMENT_DONE: EventName = EventName("assignment_done");
    pub const EV_WALKOUT: EventName = EventName("walkout");
    pub const EV_RESERVE_TIMEOUT: EventName = EventName("reserve_timeout");
    pub const EV_STALE_RETIRED: EventName = EventName("stale_retired");
    pub const EV_MAINTENANCE_EVICT: EventName = EventName("maintenance_evict");
    pub const EV_OUTAGE_DEFER: EventName = EventName("outage_defer");
    pub const EV_OUTAGE_RESUME: EventName = EventName("outage_resume");
    pub const EV_POOL_JOIN: EventName = EventName("pool_join");
    pub const EV_POOL_LEAVE: EventName = EventName("pool_leave");
}

#[cfg(test)]
mod tests {
    use super::names;

    #[test]
    fn metric_and_event_names_are_unique() {
        // The lint enforces this statically across the workspace; this
        // test keeps the registry honest even when lint doesn't run.
        let all: &[&str] = &[
            names::RUNNER_CHECKOUT.as_str(),
            names::RUNNER_DISPATCH.as_str(),
            names::RUNNER_ASSIGNMENT_DONE.as_str(),
            names::RUNNER_WALKOUT.as_str(),
            names::RUNNER_RESERVE_TIMEOUT.as_str(),
            names::RUNNER_STALE_RETIRED.as_str(),
            names::RUNNER_MAINTENANCE_EVICT.as_str(),
            names::RUNNER_OUTAGE_DEFER.as_str(),
            names::RUNNER_OUTAGE_RESUME.as_str(),
            names::RUNNER_ASSIGNMENT_SPAN_MS.as_str(),
            names::RUNNER_QUEUE_DEPTH.as_str(),
            names::RUNNER_QUEUE_DEPTH_HWM.as_str(),
            names::POOL_JOIN.as_str(),
            names::POOL_LEAVE.as_str(),
            names::POOL_CHECKIN.as_str(),
            names::POOL_OCCUPANCY.as_str(),
            names::POOL_OCCUPANCY_HWM.as_str(),
            names::EV_CHECKOUT.as_str(),
            names::EV_DISPATCH.as_str(),
            names::EV_ASSIGNMENT_DONE.as_str(),
            names::EV_WALKOUT.as_str(),
            names::EV_RESERVE_TIMEOUT.as_str(),
            names::EV_STALE_RETIRED.as_str(),
            names::EV_MAINTENANCE_EVICT.as_str(),
            names::EV_OUTAGE_DEFER.as_str(),
            names::EV_OUTAGE_RESUME.as_str(),
            names::EV_POOL_JOIN.as_str(),
            names::EV_POOL_LEAVE.as_str(),
        ];
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric/event name");
    }
}
