//! Proptest state machine for the retainer pool: arbitrary operation
//! sequences applied in lockstep to [`RetainerPool`] and to a naive
//! reference model (unsorted `Vec`, linear scans, obviously-correct
//! bookkeeping). Every observable — membership, states, wait owed at
//! leave, staleness, and the checkout order under both strategies —
//! must agree after every step.

use clamshell::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
// `clamshell::prelude::Strategy` (the learning enum) collides with the
// proptest trait under glob imports; re-import the trait explicitly.
use proptest::strategy::Strategy as _;

const CAPACITY: usize = 4;
const IDS: u32 = 6;

#[derive(Debug, Clone, Copy)]
enum Op {
    Join(u32),
    Leave(u32),
    Start(u32),
    Finish(u32),
    Bump,
    Advance(u64),
}

fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof`; a selector tuple keeps
    // the distribution explicit and fully shrinkable.
    (0u32..6, 0..IDS, 1u64..120).prop_map(|(sel, id, dt)| match sel {
        0 => Op::Join(id),
        1 => Op::Leave(id),
        2 => Op::Start(id),
        3 => Op::Finish(id),
        4 => Op::Bump,
        _ => Op::Advance(dt),
    })
}

/// The naive model: push-order `Vec`, linear scans, no cleverness.
#[derive(Debug, Clone)]
struct RefMember {
    id: WorkerId,
    waiting_since: Option<SimTime>,
    working_since: Option<SimTime>,
    generation: u64,
}

#[derive(Debug, Clone)]
struct RefPool {
    generation: u64,
    members: Vec<RefMember>,
}

impl RefPool {
    fn new() -> Self {
        RefPool { generation: 0, members: Vec::new() }
    }

    fn find(&self, w: WorkerId) -> Option<&RefMember> {
        self.members.iter().find(|m| m.id == w)
    }

    fn join(&mut self, w: WorkerId, now: SimTime) -> bool {
        if self.members.len() >= CAPACITY || self.find(w).is_some() {
            return false;
        }
        self.members.push(RefMember {
            id: w,
            waiting_since: Some(now),
            working_since: None,
            generation: self.generation,
        });
        true
    }

    fn leave(&mut self, w: WorkerId, now: SimTime) -> Option<SimDuration> {
        let idx = self.members.iter().position(|m| m.id == w)?;
        let m = self.members.remove(idx);
        Some(match m.waiting_since {
            Some(since) => now.since(since),
            None => SimDuration::ZERO,
        })
    }

    fn is_waiting(&self, w: WorkerId) -> bool {
        self.find(w).is_some_and(|m| m.waiting_since.is_some())
    }

    fn is_working(&self, w: WorkerId) -> bool {
        self.find(w).is_some_and(|m| m.working_since.is_some())
    }

    fn start(&mut self, w: WorkerId, now: SimTime) -> SimDuration {
        let m = self.members.iter_mut().find(|m| m.id == w).unwrap();
        let since = m.waiting_since.take().unwrap();
        m.working_since = Some(now);
        now.since(since)
    }

    fn finish(&mut self, w: WorkerId, now: SimTime) -> SimDuration {
        let m = self.members.iter_mut().find(|m| m.id == w).unwrap();
        let since = m.working_since.take().unwrap();
        m.waiting_since = Some(now);
        now.since(since)
    }

    fn waiting_ids(&self) -> Vec<WorkerId> {
        let mut ids: Vec<WorkerId> =
            self.members.iter().filter(|m| m.waiting_since.is_some()).map(|m| m.id).collect();
        ids.sort_unstable();
        ids
    }

    /// LIFO checkout order: most recently idle first, ties toward the
    /// higher id; non-waiting candidates sink to the end as `ZERO`.
    fn lifo_order(&self, candidates: &[WorkerId]) -> Vec<WorkerId> {
        let since =
            |w: WorkerId| self.find(w).and_then(|m| m.waiting_since).unwrap_or(SimTime::ZERO);
        let mut out = candidates.to_vec();
        out.sort_by_key(|&w| std::cmp::Reverse((since(w), w)));
        out
    }
}

fn check_agreement(pool: &RetainerPool, lifo_pool: &RetainerPool, model: &RefPool) {
    assert_eq!(pool.len(), model.members.len());
    for id in 0..IDS {
        let w = WorkerId(id);
        assert_eq!(pool.contains(w), model.find(w).is_some());
        assert_eq!(
            pool.is_stale(w),
            model.find(w).is_some_and(|m| m.generation < model.generation),
            "staleness of {w} disagrees"
        );
        if let Some(rm) = model.find(w) {
            let m = pool.member(w).unwrap();
            assert_eq!(m.generation, rm.generation);
            match m.state {
                MemberState::Waiting { since } => assert_eq!(Some(since), rm.waiting_since),
                MemberState::Working { since } => assert_eq!(Some(since), rm.working_since),
            }
        }
    }
    // Checkout ordering: FIFO preserves id order; LIFO matches the
    // reference sort. Both pools hold identical membership by
    // construction, so the waiting set is shared.
    let waiting = model.waiting_ids();
    let mut fifo_out = waiting.clone();
    pool.order_checkouts(&mut fifo_out);
    assert_eq!(fifo_out, waiting, "FIFO must be the identity on id order");
    let mut lifo_out = waiting.clone();
    lifo_pool.order_checkouts(&mut lifo_out);
    assert_eq!(lifo_out, model.lifo_order(&waiting), "LIFO order disagrees");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The real pool and the naive model agree on every observable after
    /// every operation, for arbitrary op sequences.
    #[test]
    fn pool_matches_reference_model(ops in vec(arb_op(), 1..60)) {
        let mut pool = RetainerPool::new(CAPACITY);
        let mut lifo_pool = RetainerPool::with_config(
            CAPACITY,
            PoolConfig { strategy: CheckoutStrategy::Lifo, ..PoolConfig::default() },
        );
        let mut model = RefPool::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Join(id) => {
                    let w = WorkerId(id);
                    let a = pool.join(w, now, ());
                    let b = lifo_pool.join(w, now, ());
                    let r = model.join(w, now);
                    prop_assert_eq!(a, r);
                    prop_assert_eq!(b, r);
                }
                Op::Leave(id) => {
                    let w = WorkerId(id);
                    let a = pool.leave(w, now);
                    let b = lifo_pool.leave(w, now);
                    let r = model.leave(w, now);
                    prop_assert_eq!(a, r);
                    prop_assert_eq!(b, r);
                }
                Op::Start(id) => {
                    // Guard on the *model*: starting a non-waiting worker
                    // is a scheduler bug and panics by contract.
                    let w = WorkerId(id);
                    if model.is_waiting(w) {
                        let a = pool.start_work(w, now);
                        let b = lifo_pool.start_work(w, now);
                        let r = model.start(w, now);
                        prop_assert_eq!(a, r);
                        prop_assert_eq!(b, r);
                    }
                }
                Op::Finish(id) => {
                    let w = WorkerId(id);
                    if model.is_working(w) {
                        let a = pool.finish_work(w, now);
                        let b = lifo_pool.finish_work(w, now);
                        let r = model.finish(w, now);
                        prop_assert_eq!(a, r);
                        prop_assert_eq!(b, r);
                    }
                }
                Op::Bump => {
                    pool.bump_generation();
                    lifo_pool.bump_generation();
                    model.generation += 1;
                }
                Op::Advance(secs) => {
                    now += SimDuration::from_secs(secs);
                }
            }
            check_agreement(&pool, &lifo_pool, &model);
        }
    }
}
