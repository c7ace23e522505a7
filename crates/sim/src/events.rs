//! Deterministic discrete-event queue.
//!
//! The runner in `clamshell-core` advances simulated time by repeatedly
//! popping the earliest pending event. Determinism is essential (the
//! experiment harness diffs regenerated tables), so events that fire at the
//! same [`SimTime`] are delivered in insertion order — a plain
//! `BinaryHeap<(time, event)>` would order ties by the event payload, which
//! is both surprising and fragile.
//!
//! # Implementation
//!
//! The queue is a **two-list ("near/far") event list** in the tradition of
//! splay-free DES queues (Blackstone's two-list queue; the structure
//! behind SPEEDES and ladder queues), replacing the original
//! `BinaryHeap<Scheduled>`:
//!
//! * A small **near list** holds every event at or before the *pivot
//!   time*, sorted descending by `(time, seq)` — so the earliest event is
//!   at the back and [`EventQueue::pop`] is an O(1) `Vec::pop`.
//! * An unstructured **far list** holds everything later than the pivot;
//!   [`EventQueue::schedule`] is an O(1) push for them (the common case —
//!   new events land in the future).
//! * When the near list drains, a **rebuild** advances the pivot by an
//!   adaptive width, sweeps the far list once moving everything at or
//!   before the new pivot into the near list, and sorts that chunk. The
//!   width self-tunes (doubling/halving) toward a chunk size that grows
//!   with the queue, so each event is swept O(1) amortized times.
//!
//! On the simulator's *hold pattern* — pop the earliest event, schedule a
//! replacement some delta ahead, pending count steady around the
//! retainer-pool size — this does amortized O(1) pops and schedules plus
//! an O(chunk log chunk) sort every chunk-many pops, where a heap pays
//! O(log n) sift traffic per operation. The `perf layers` harness times
//! this pattern as `sim.queue_hold_ns` (see `perf/README.md`).
//!
//! Determinism is preserved exactly: `(time, seq)` pairs are unique, every
//! pop takes the global minimum under that order, and all pivot/width
//! decisions are pure functions of the operation sequence — identical runs
//! remain bit-identical, and mis-tuned widths can only cost time, never
//! change pop order. `tests/properties.rs` at the workspace root checks
//! pop-order equivalence against a reference `BinaryHeap` model under
//! random interleaved schedule/pop sequences.

use crate::time::SimTime;

/// One pending event: firing time, global insertion sequence (the FIFO
/// tie-breaker), and the payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Floor for the rebuild chunk target (events per near-list refill).
const MIN_CHUNK: usize = 16;

/// Ceiling for the rebuild chunk target — bounds both the sort and the
/// latency spike of a single rebuild on huge queues.
const MAX_CHUNK: usize = 1024;

/// A deterministic future-event list.
///
/// ```
/// use clamshell_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// q.schedule(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events with `at <= pivot_t`, sorted descending by `(at, seq)`:
    /// the global minimum is `near.last()`.
    near: Vec<Entry<E>>,
    /// Events with `at > pivot_t`, unordered.
    far: Vec<Entry<E>>,
    /// The time boundary between the lists.
    pivot_t: u64,
    /// How far a rebuild advances the pivot; self-tunes toward the
    /// chunk target (see [`EventQueue::rebuild`]).
    width: u64,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue pre-sized for `capacity` pending events.
    ///
    /// The simulator's in-flight event count is bounded by the pool size
    /// (one completion per busy worker plus a few bookkeeping events), so
    /// callers that know their pool size avoid the early regrows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            near: Vec::with_capacity(capacity.min(4 * MAX_CHUNK)),
            far: Vec::with_capacity(capacity),
            pivot_t: 0,
            width: 16,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; we clamp to
    /// `now` (the event fires "immediately") and debug-assert so tests
    /// catch it.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let at = at.max(self.now).as_millis();
        let seq = self.next_seq;
        self.next_seq += 1;
        if at > self.pivot_t {
            // Common case: the event is beyond the pivot — O(1) append.
            self.far.push(Entry { at, seq, event });
        } else {
            // Near-future event: keep the near list sorted (descending,
            // so strictly-greater entries stay in front). `seq` is fresh,
            // so among equal times the new event sorts after existing
            // ones — FIFO, as documented.
            let pos = self.near.partition_point(|e| (e.at, e.seq) > (at, seq));
            self.near.insert(pos, Entry { at, seq, event });
        }
    }

    /// Pop the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(e) = self.near.pop() {
                let at = SimTime::from_millis(e.at);
                self.now = at;
                return Some((at, e.event));
            }
            if self.far.is_empty() {
                return None;
            }
            self.rebuild();
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Drop every pending event (used when a run is aborted early, e.g.
    /// once the learning loop converges). Keeps allocated capacity so a
    /// reused queue stops allocating once warm.
    pub fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
        self.pivot_t = self.now.as_millis();
    }

    /// Refill the drained near list: advance the pivot, sweep the far
    /// list once for everything at or before it, sort that chunk.
    ///
    /// The pivot step self-tunes: if a sweep moved more than twice the
    /// chunk target the width halves, if it moved less than half it
    /// doubles — so rebuild frequency and chunk size stay balanced for
    /// whatever inter-event spacing the simulation produces. A sweep
    /// that moves nothing jumps the pivot to just below the far minimum
    /// and rescans (bounded: the second sweep always moves at least that
    /// minimum). Callers guarantee `far` is non-empty.
    fn rebuild(&mut self) {
        debug_assert!(self.near.is_empty() && !self.far.is_empty());
        // Chunk target: scales with the queue so the per-event sweep
        // count stays O(1) amortized as the simulation grows.
        let chunk = (self.far.len() / 16).clamp(MIN_CHUNK, MAX_CHUNK);
        loop {
            let pivot = self.pivot_t.saturating_add(self.width);
            let mut i = 0;
            while i < self.far.len() {
                if self.far[i].at <= pivot {
                    let e = self.far.swap_remove(i);
                    self.near.push(e);
                } else {
                    i += 1;
                }
            }
            if self.near.is_empty() {
                // Pivot landed short of every far event: jump to just
                // below the true minimum so the next sweep moves it.
                let min_t = self.far.iter().map(|e| e.at).min().expect("far is non-empty");
                self.pivot_t = min_t - 1;
                continue;
            }
            self.pivot_t = pivot;
            let moved = self.near.len();
            if moved > chunk * 2 {
                self.width = (self.width / 2).max(1);
            } else if moved < chunk / 2 {
                self.width = self.width.saturating_mul(2);
            }
            // Descending, minimum last; (at, seq) is unique so unstable
            // sorting is exact.
            self.near.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(100);
        for i in 0..50 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_insertion_order_across_rebuild_chunks() {
        // More tied events than any one rebuild chunk moves, plus ties
        // scheduled *after* the first pop (which forces them through the
        // near-insert path).
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(100);
        let n = 3000;
        for i in 0..n {
            q.schedule(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, n);
        q.schedule(t, n + 1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (1..n + 2).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.schedule(SimTime::from_millis(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        // Scheduling relative to now keeps working.
        q.schedule(q.now() + SimDuration::from_millis(1), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(6));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(9));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Sparse far-future events (half-hour patience timers among
    /// millisecond ticks) exercise the empty-sweep pivot jump.
    #[test]
    fn sparse_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        let times = [1u64, 2, 3, 1_800_000, 3_600_000, 5, 90_000, 4, 1_799_999];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort_unstable();
        for (t, i) in sorted {
            assert_eq!(q.pop(), Some((SimTime::from_millis(t), i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// A large queue drains in exact order through many rebuild cycles.
    #[test]
    fn large_queue_drains_in_exact_order() {
        let mut q = EventQueue::new();
        let n = 5_000u64;
        for i in 0..n {
            // Clustered pseudo-random times with plenty of collisions.
            q.schedule(SimTime::from_millis((i.wrapping_mul(2654435761)) % 977), i);
        }
        let mut last = (0u64, 0u64);
        for step in 0..n {
            let (at, e) = q.pop().expect("queue should hold n events");
            let key = (at.as_millis(), e);
            if step > 0 {
                assert!(key > last, "out of order: {key:?} after {last:?}");
            }
            last = key;
        }
        assert_eq!(q.pop(), None);
    }

    /// Exhaustive interleaving of a deterministic mixed workload must
    /// drain in exact (time, seq) order.
    #[test]
    fn drains_in_key_order_under_mixed_workload() {
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut seq = 0u64;
        for i in 0..200u64 {
            // Deterministic pseudo-random times via a multiplicative hash;
            // plenty of duplicates (mod 16) to exercise the tie contract,
            // offset past the advancing clock.
            let t = q.now().as_millis() + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) % 16;
            q.schedule(SimTime::from_millis(t), seq);
            expect.push((t, seq));
            seq += 1;
            if i % 3 == 0 {
                // Interleave pops; clamp scheduling below at `now`.
                let (at, s) = q.pop().unwrap();
                expect.sort();
                let (et, es) = expect.remove(0);
                assert_eq!((at.as_millis(), s), (et, es));
                // Future schedules must respect the advanced clock.
                let floor = at.as_millis();
                q.schedule(SimTime::from_millis(floor + 1), seq);
                expect.push((floor + 1, seq));
                seq += 1;
            }
        }
        expect.sort();
        for (et, es) in expect {
            let (at, s) = q.pop().unwrap();
            assert_eq!((at.as_millis(), s), (et, es));
        }
        assert_eq!(q.pop(), None);
    }
}
