//! LifeGuard: straggler-mitigation task routing (§4.1).
//!
//! When straggler mitigation is on and no unassigned tasks remain in the
//! batch, an idle worker is immediately routed to some *active* task,
//! duplicating it. The paper simulates four routing policies — "routing to
//! the longest-running active task, to a random task, to the task with
//! fewest active workers, or to the task known by an oracle to complete
//! the slowest" — and finds, to the authors' surprise, that the choice
//! doesn't matter ("random performed as fast as the oracle solution").
//! All four are implemented so the `routing` experiment and ablation bench
//! can reproduce that result.

use crate::task::{TaskId, TaskTable};
use clamshell_sim::rng::Rng;
use clamshell_sim::time::SimTime;

/// Which active task an idle worker duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Uniformly random eligible active task (the paper's default — as
    /// good as Oracle).
    Random,
    /// The active task whose earliest live assignment started first.
    LongestRunning,
    /// The active task with the fewest live assignments.
    FewestWorkers,
    /// The active task whose best (earliest) planned completion among
    /// live assignments is *latest* — requires knowing true completion
    /// times, which only the simulator can provide.
    Oracle,
}

/// Choose an active task for an idle worker under `policy`.
///
/// `eligible` must already be filtered for: task active (not complete),
/// concurrency cap not reached, and the worker not already on it. The
/// [`TaskTable`] resolves task/assignment ids whether or not the runner
/// has retired earlier state (streaming mode). Returns `None` when
/// `eligible` is empty.
pub fn route(
    policy: RoutingPolicy,
    eligible: &[TaskId],
    table: &TaskTable,
    rng: &mut Rng,
) -> Option<TaskId> {
    if eligible.is_empty() {
        return None;
    }
    match policy {
        RoutingPolicy::Random => eligible.get(rng.index(eligible.len())).copied(),
        RoutingPolicy::LongestRunning => eligible.iter().copied().min_by_key(|&t| {
            table
                .task(t)
                .active
                .iter()
                .map(|&a| table.assignment(a).start)
                .min()
                .unwrap_or(SimTime::MAX)
        }),
        RoutingPolicy::FewestWorkers => {
            eligible.iter().copied().min_by_key(|&t| (table.task(t).active.len(), t))
        }
        RoutingPolicy::Oracle => eligible.iter().copied().max_by_key(|&t| {
            (
                table
                    .task(t)
                    .active
                    .iter()
                    .map(|&a| table.assignment(a).planned_end)
                    .min()
                    .unwrap_or(SimTime::ZERO),
                std::cmp::Reverse(t),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskSpec, TaskState};
    use clamshell_crowd::WorkerId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Two active tasks: task 0 started at 0s, finishes at 100s (one
    /// worker); task 1 started at 5s, finishes at 20s (two workers).
    /// Pushed after a retired prefix of `tasks` tasks and `assignments`
    /// assignments, so their ids start at those bases.
    fn fixture(tasks: u32, assignments: u32) -> TaskTable {
        let mut table = TaskTable::after_retiring(tasks, assignments);
        let t0 = table.push_task(TaskState::new(TaskSpec::new(vec![0]), 0, t(0)));
        let t1 = table.push_task(TaskState::new(TaskSpec::new(vec![0]), 0, t(0)));
        table.push_assignment(t0, WorkerId(0), t(0), t(100));
        table.push_assignment(t1, WorkerId(1), t(5), t(20));
        table.push_assignment(t1, WorkerId(2), t(6), t(50));
        table
    }

    #[test]
    fn empty_eligible_routes_nowhere() {
        let table = fixture(0, 0);
        let mut rng = Rng::new(1);
        assert_eq!(route(RoutingPolicy::Random, &[], &table, &mut rng), None);
    }

    #[test]
    fn longest_running_picks_earliest_start() {
        let table = fixture(0, 0);
        let mut rng = Rng::new(1);
        let pick = route(RoutingPolicy::LongestRunning, &[TaskId(0), TaskId(1)], &table, &mut rng);
        assert_eq!(pick, Some(TaskId(0))); // started at 0s vs 5s
    }

    #[test]
    fn fewest_workers_picks_thin_task() {
        let table = fixture(0, 0);
        let mut rng = Rng::new(1);
        let pick = route(RoutingPolicy::FewestWorkers, &[TaskId(0), TaskId(1)], &table, &mut rng);
        assert_eq!(pick, Some(TaskId(0))); // 1 live assignment vs 2
    }

    #[test]
    fn oracle_picks_latest_finishing() {
        let table = fixture(0, 0);
        let mut rng = Rng::new(1);
        let pick = route(RoutingPolicy::Oracle, &[TaskId(0), TaskId(1)], &table, &mut rng);
        // Task 0's earliest completion is 100s; task 1's is 20s.
        assert_eq!(pick, Some(TaskId(0)));
    }

    #[test]
    fn base_offset_table_routes_like_the_full_table() {
        // Same fixture, but as the live tail of a longer run: every id
        // shifted up by the bases the retired prefix left behind.
        let (tb, ab) = (10u32, 20u32);
        let table = fixture(tb, ab);
        let eligible = [TaskId(tb), TaskId(tb + 1)];
        for policy in
            [RoutingPolicy::LongestRunning, RoutingPolicy::FewestWorkers, RoutingPolicy::Oracle]
        {
            let mut rng = Rng::new(1);
            let pick = route(policy, &eligible, &table, &mut rng);
            assert_eq!(pick, Some(TaskId(tb)), "{policy:?} must resolve offset ids");
        }
    }

    #[test]
    fn simultaneous_starts_break_ties_deterministically() {
        // Three tasks whose one live replica each started at 5s and
        // finishes at 50s: every policy but Random sees a full tie.
        let mut table = TaskTable::default();
        for w in 0..3 {
            let tid = table.push_task(TaskState::new(TaskSpec::new(vec![0]), 0, t(0)));
            table.push_assignment(tid, WorkerId(w), t(5), t(50));
        }
        let eligible = [TaskId(2), TaskId(0), TaskId(1)];
        let pick = |policy| route(policy, &eligible, &table, &mut Rng::new(1));
        assert_eq!(pick(RoutingPolicy::LongestRunning), Some(TaskId(2)), "first eligible task");
        assert_eq!(pick(RoutingPolicy::FewestWorkers), Some(TaskId(0)), "lowest id");
        assert_eq!(pick(RoutingPolicy::Oracle), Some(TaskId(0)), "lowest id");
    }

    #[test]
    fn random_covers_all_eligible() {
        let table = fixture(0, 0);
        let mut rng = Rng::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            if let Some(p) = route(RoutingPolicy::Random, &[TaskId(0), TaskId(1)], &table, &mut rng)
            {
                seen.insert(p);
            }
        }
        assert_eq!(seen.len(), 2);
    }
}
