//! Retainer-pool slots.
//!
//! Figure 1 of the paper shows the crowd platform holding "a set of slots
//! (S1…S4) in the current retainer pool. Each slot corresponds to a
//! persistent retainer task that a crowd worker has accepted, and may be
//! empty or contain a task." [`RetainerPool`] models exactly that: a
//! bounded set of members, each either *waiting* (idle, accruing wait pay)
//! or *working* (running an assignment). Iteration order is deterministic
//! (ordered by [`WorkerId`]) so the scheduler's choices are reproducible.
//!
//! Each [`Member`] record also carries the caller's per-member data `T`
//! (`()` by default): the caller hands it over when the worker joins, and
//! it is dropped when they leave. The runner keeps the worker's whole
//! state there (the platform's worker record, idle flag, abandon epoch,
//! patience and the maintenance statistics), so one `leave` forgets a
//! departed worker.
//!
//! Beyond the flat slot set, the pool carries production resource-pool
//! lifecycle semantics (in the mold of database connection pools):
//!
//! - a [`PoolConfig`] with a replenishment floor (`min_size`) below the
//!   hard `capacity` ceiling, an idle timeout for off-pool reserve
//!   workers, and a checkout strategy;
//! - [`CheckoutStrategy`]: FIFO hands work to the longest-idle member
//!   ("even wear" — every member keeps earning and stays warm), LIFO to
//!   the most-recently-idle ("hot working set" — a fast core serves
//!   bursts while the cold tail idles);
//! - **generations**: a monotone counter bumped on platform blackouts.
//!   Members joined under an older generation are *stale* and are retired
//!   lazily at their next checkout — an O(1) bump instead of an eager
//!   pool scan at outage time.
//!
//! At the default config (no floor, FIFO, no timeout, generations off)
//! every one of these mechanisms is inert and the pool behaves exactly
//! like the flat slot set it replaced — byte-identical runs.
//!
//! The pool records no metrics. The runner records a trace event for
//! every join, leave and checkout, and the observer derives the pool
//! metrics from those events.

use crate::platform::WorkerId;
use clamshell_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Order in which idle members are handed new work when a batch opens or
/// coverage is lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckoutStrategy {
    /// "Even wear": longest-idle member first. Every member keeps cycling
    /// through work, so wait-pay accrual and practice effects spread
    /// evenly across the pool. This is the historical dispatch order.
    #[default]
    Fifo,
    /// "Hot working set": most-recently-idle member first. Under bursty
    /// arrivals a small fast core absorbs most of the work while the
    /// rest of the pool sits cold in reserve.
    Lifo,
}

/// Lifecycle knobs for [`RetainerPool`]. The default value makes every
/// mechanism inert: no floor (`min_size = None` ⇒ replenish to
/// capacity), FIFO checkout, no idle timeout, generations off — runs are
/// byte-identical to the pre-lifecycle pool.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolConfig {
    /// Replenishment floor. Background recruitment keeps the pool at this
    /// size; demand surges may promote reserve workers up to `capacity`.
    /// `None` means "floor == capacity" (always run full).
    pub min_size: Option<usize>,
    /// Checkout order for idle members.
    pub strategy: CheckoutStrategy,
    /// How long a *reserve* (off-pool) worker may sit idle before being
    /// released. `None` disables the timeout. The runner jitters each
    /// deadline from a dedicated labeled RNG stream so enabling the
    /// timeout never perturbs benign draws.
    pub idle_timeout: Option<SimDuration>,
    /// Bump the pool generation on platform blackouts; members from older
    /// generations are lazily retired at their next checkout.
    pub generations: bool,
}

/// The state of one pool member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Idle in the pool since the given time (accruing wait pay).
    Waiting {
        /// When the worker last became idle.
        since: SimTime,
    },
    /// Executing an assignment since the given time.
    Working {
        /// When the current assignment started.
        since: SimTime,
    },
}

/// Per-member bookkeeping, plus the caller's data `T` for this member.
#[derive(Debug, Clone)]
pub struct Member<T = ()> {
    /// Current state.
    pub state: MemberState,
    /// Pool generation at join time; members below the pool's current
    /// generation are stale.
    pub generation: u64,
    /// The caller's per-member data, handed over at join.
    pub data: T,
}

/// A bounded retainer pool with lifecycle semantics (see module docs).
#[derive(Debug, Clone)]
pub struct RetainerPool<T = ()> {
    capacity: usize,
    config: PoolConfig,
    generation: u64,
    members: BTreeMap<WorkerId, Member<T>>,
}

impl RetainerPool {
    /// Create a pool with room for `capacity` workers (`Np` in Table 3),
    /// no per-member data and the inert default [`PoolConfig`].
    pub fn new(capacity: usize) -> Self {
        Self::with_config(capacity, PoolConfig::default())
    }
}

impl<T> RetainerPool<T> {
    /// Create a pool with explicit lifecycle knobs.
    pub fn with_config(capacity: usize, config: PoolConfig) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        if let Some(min) = config.min_size {
            assert!(
                (1..=capacity).contains(&min),
                "pool min_size must be in 1..=capacity ({min} vs {capacity})"
            );
        }
        RetainerPool { capacity, config, generation: 0, members: BTreeMap::new() }
    }

    /// Target size `Np`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lifecycle configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// The size background replenishment aims for: `min_size` when set,
    /// otherwise the full capacity.
    pub fn fill_target(&self) -> usize {
        self.config.min_size.unwrap_or(self.capacity)
    }

    /// Current pool generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advance the generation (called on a blackout). O(1): existing
    /// members are *not* scanned — they become stale and are retired
    /// lazily at their next checkout.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Whether `w` is a member from an older generation (due for lazy
    /// retirement at checkout). Non-members are not stale.
    pub fn is_stale(&self, w: WorkerId) -> bool {
        self.members.get(&w).is_some_and(|m| m.generation < self.generation)
    }

    /// Reorder a checkout candidate list according to the configured
    /// strategy. The input is expected in ascending [`WorkerId`] order
    /// (recruitment order — the historical FIFO dispatch order), so FIFO
    /// is a no-op; LIFO sorts most-recently-idle first, breaking ties
    /// toward the younger (higher-id) worker.
    pub fn order_checkouts(&self, candidates: &mut [WorkerId]) {
        match self.config.strategy {
            CheckoutStrategy::Fifo => {}
            CheckoutStrategy::Lifo => {
                candidates.sort_unstable_by(|&a, &b| {
                    let idle_since = |w: WorkerId| match self.members.get(&w).map(|m| m.state) {
                        Some(MemberState::Waiting { since }) => since,
                        _ => SimTime::ZERO,
                    };
                    // Descending (since, id): latest idler first.
                    (idle_since(b), b).cmp(&(idle_since(a), a))
                });
            }
        }
    }

    /// Current number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Open slots remaining.
    pub fn vacancies(&self) -> usize {
        self.capacity.saturating_sub(self.members.len())
    }

    /// Add a worker in the `Waiting` state, carrying the caller's `data`.
    /// Returns `false` (and drops `data`) if the pool is full or the
    /// worker is already a member.
    pub fn join(&mut self, w: WorkerId, now: SimTime, data: T) -> bool {
        if self.vacancies() == 0 || self.members.contains_key(&w) {
            return false;
        }
        self.members.insert(
            w,
            Member {
                state: MemberState::Waiting { since: now },
                generation: self.generation,
                data,
            },
        );
        true
    }

    /// Remove a worker (eviction or abandonment), dropping their data.
    /// Returns the waiting duration to settle (wait pay owed since they
    /// last became idle), or `None` if the worker was not a member.
    pub fn leave(&mut self, w: WorkerId, now: SimTime) -> Option<SimDuration> {
        let m = self.members.remove(&w)?;
        Some(match m.state {
            MemberState::Waiting { since } => now.since(since),
            MemberState::Working { .. } => SimDuration::ZERO,
        })
    }

    /// Is this worker a member?
    pub fn contains(&self, w: WorkerId) -> bool {
        self.members.contains_key(&w)
    }

    /// Member record, if present.
    pub fn member(&self, w: WorkerId) -> Option<&Member<T>> {
        self.members.get(&w)
    }

    /// The caller's data for member `w`, if present.
    pub fn data_mut(&mut self, w: WorkerId) -> Option<&mut T> {
        self.members.get_mut(&w).map(|m| &mut m.data)
    }

    /// Transition a waiting worker to working. Returns the waiting
    /// duration being ended (for wait-pay settlement). Panics if the
    /// worker is not a waiting member — that is a scheduler bug.
    pub fn start_work(&mut self, w: WorkerId, now: SimTime) -> SimDuration {
        let m = self.members.get_mut(&w).expect("start_work: not a member");
        match m.state {
            MemberState::Waiting { since } => {
                m.state = MemberState::Working { since: now };
                now.since(since)
            }
            MemberState::Working { .. } => panic!("start_work: {w} already working"),
        }
    }

    /// Transition a working worker back to waiting, whether the
    /// assignment finished or was terminated. Returns the work duration.
    pub fn finish_work(&mut self, w: WorkerId, now: SimTime) -> SimDuration {
        let m = self.members.get_mut(&w).expect("finish_work: not a member");
        match m.state {
            MemberState::Working { since } => {
                m.state = MemberState::Waiting { since: now };
                now.since(since)
            }
            MemberState::Waiting { .. } => panic!("finish_work: {w} not working"),
        }
    }

    /// All members in deterministic order.
    pub fn members(&self) -> impl Iterator<Item = (WorkerId, &Member<T>)> {
        self.members.iter().map(|(&w, m)| (w, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn join_respects_capacity() {
        let mut p = RetainerPool::new(2);
        assert!(p.join(WorkerId(0), t(0), ()));
        assert!(p.join(WorkerId(1), t(0), ()));
        assert!(!p.join(WorkerId(2), t(0), ()), "pool full");
        assert_eq!(p.len(), 2);
        assert_eq!(p.vacancies(), 0);
    }

    #[test]
    fn double_join_rejected() {
        let mut p = RetainerPool::new(3);
        assert!(p.join(WorkerId(0), t(0), ()));
        assert!(!p.join(WorkerId(0), t(1), ()));
    }

    #[test]
    fn work_transitions_and_wait_settlement() {
        let mut p = RetainerPool::new(2);
        p.join(WorkerId(0), t(0), ());
        // Waited 10s before work started.
        let waited = p.start_work(WorkerId(0), t(10));
        assert_eq!(waited, SimDuration::from_secs(10));
        assert_eq!(p.member(WorkerId(0)).unwrap().state, MemberState::Working { since: t(10) });
        let worked = p.finish_work(WorkerId(0), t(25));
        assert_eq!(worked, SimDuration::from_secs(15));
        assert_eq!(p.member(WorkerId(0)).unwrap().state, MemberState::Waiting { since: t(25) });
    }

    #[test]
    fn member_data_lives_from_join_to_leave() {
        let mut p: RetainerPool<u32> = RetainerPool::with_config(2, PoolConfig::default());
        assert_eq!(p.data_mut(WorkerId(0)), None);
        p.join(WorkerId(0), t(0), 5);
        assert!(!p.join(WorkerId(0), t(0), 9), "a rejected join drops its data");
        *p.data_mut(WorkerId(0)).unwrap() += 2;
        p.start_work(WorkerId(0), t(1));
        p.finish_work(WorkerId(0), t(2));
        assert_eq!(p.member(WorkerId(0)).unwrap().data, 7, "transitions keep the data");
        p.leave(WorkerId(0), t(3));
        assert_eq!(p.data_mut(WorkerId(0)), None, "leave drops the data");
    }

    #[test]
    fn leave_returns_outstanding_wait() {
        let mut p = RetainerPool::new(2);
        p.join(WorkerId(0), t(0), ());
        assert_eq!(p.leave(WorkerId(0), t(30)), Some(SimDuration::from_secs(30)));
        assert_eq!(p.leave(WorkerId(0), t(31)), None, "already gone");
        // A working member owes no wait on departure.
        p.join(WorkerId(1), t(40), ());
        p.start_work(WorkerId(1), t(45));
        assert_eq!(p.leave(WorkerId(1), t(50)), Some(SimDuration::ZERO));
    }

    #[test]
    fn member_order_is_deterministic() {
        let mut p = RetainerPool::new(5);
        for id in [4u32, 1, 3, 0, 2] {
            p.join(WorkerId(id), t(0), ());
        }
        let order: Vec<WorkerId> = p.members().map(|(w, _)| w).collect();
        assert_eq!(order, [0, 1, 2, 3, 4].map(WorkerId));
    }

    #[test]
    #[should_panic]
    fn start_work_on_nonmember_panics() {
        let mut p = RetainerPool::new(1);
        p.start_work(WorkerId(9), t(0));
    }

    #[test]
    #[should_panic]
    fn double_start_work_panics() {
        let mut p = RetainerPool::new(1);
        p.join(WorkerId(0), t(0), ());
        p.start_work(WorkerId(0), t(1));
        p.start_work(WorkerId(0), t(2));
    }

    // ------------------------------------------------------------------
    // Lifecycle: config, generations, checkout strategies
    // ------------------------------------------------------------------

    #[test]
    fn default_config_is_inert() {
        let p = RetainerPool::new(4);
        assert_eq!(*p.config(), PoolConfig::default());
        assert_eq!(p.fill_target(), 4, "no floor means fill to capacity");
        assert_eq!(p.generation(), 0);
    }

    #[test]
    fn min_size_sets_the_fill_target() {
        let cfg = PoolConfig { min_size: Some(2), ..Default::default() };
        let p: RetainerPool = RetainerPool::with_config(5, cfg);
        assert_eq!(p.fill_target(), 2);
        assert_eq!(p.capacity(), 5);
    }

    #[test]
    #[should_panic]
    fn min_size_above_capacity_rejected() {
        let cfg = PoolConfig { min_size: Some(6), ..Default::default() };
        let _: RetainerPool = RetainerPool::with_config(5, cfg);
    }

    #[test]
    #[should_panic]
    fn zero_min_size_rejected() {
        let cfg = PoolConfig { min_size: Some(0), ..Default::default() };
        let _: RetainerPool = RetainerPool::with_config(5, cfg);
    }

    #[test]
    fn generation_bump_marks_existing_members_stale() {
        let mut p = RetainerPool::new(3);
        p.join(WorkerId(0), t(0), ());
        p.join(WorkerId(1), t(1), ());
        assert!(!p.is_stale(WorkerId(0)));
        p.bump_generation();
        assert_eq!(p.generation(), 1);
        assert!(p.is_stale(WorkerId(0)), "pre-bump member is stale");
        assert!(p.is_stale(WorkerId(1)));
        // A fresh joiner carries the new generation.
        p.join(WorkerId(2), t(5), ());
        assert!(!p.is_stale(WorkerId(2)));
        assert_eq!(p.member(WorkerId(2)).unwrap().generation, 1);
        // Non-members are never stale.
        assert!(!p.is_stale(WorkerId(9)));
    }

    #[test]
    fn fifo_checkout_preserves_id_order() {
        let mut p = RetainerPool::new(3);
        p.join(WorkerId(0), t(0), ());
        p.join(WorkerId(1), t(10), ());
        p.join(WorkerId(2), t(20), ());
        let mut order = vec![WorkerId(0), WorkerId(1), WorkerId(2)];
        p.order_checkouts(&mut order);
        assert_eq!(order, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
    }

    #[test]
    fn lifo_checkout_prefers_most_recently_idle() {
        let cfg = PoolConfig { strategy: CheckoutStrategy::Lifo, ..Default::default() };
        let mut p: RetainerPool = RetainerPool::with_config(3, cfg);
        p.join(WorkerId(0), t(0), ());
        p.join(WorkerId(1), t(0), ());
        p.join(WorkerId(2), t(0), ());
        // Worker 0 works and comes back: now the most recently idle.
        p.start_work(WorkerId(0), t(5));
        p.finish_work(WorkerId(0), t(30));
        let mut order = vec![WorkerId(0), WorkerId(1), WorkerId(2)];
        p.order_checkouts(&mut order);
        assert_eq!(
            order,
            vec![WorkerId(0), WorkerId(2), WorkerId(1)],
            "latest idler first; equal-since ties break toward the higher id"
        );
    }
}
