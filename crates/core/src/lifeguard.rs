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

use crate::task::{StateView, TaskId};
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
/// [`StateView`] resolves task/assignment ids whether or not the runner
/// has retired earlier state (streaming mode). Returns `None` when
/// `eligible` is empty.
pub fn route(
    policy: RoutingPolicy,
    eligible: &[TaskId],
    view: &StateView<'_>,
    rng: &mut Rng,
) -> Option<TaskId> {
    if eligible.is_empty() {
        return None;
    }
    match policy {
        RoutingPolicy::Random => eligible.get(rng.index(eligible.len())).copied(),
        RoutingPolicy::LongestRunning => eligible.iter().copied().min_by_key(|&t| {
            view.task(t)
                .active
                .iter()
                .map(|&a| view.assignment(a).start)
                .min()
                .unwrap_or(SimTime::MAX)
        }),
        RoutingPolicy::FewestWorkers => {
            eligible.iter().copied().min_by_key(|&t| (view.task(t).active.len(), t))
        }
        RoutingPolicy::Oracle => eligible.iter().copied().max_by_key(|&t| {
            (
                view.task(t)
                    .active
                    .iter()
                    .map(|&a| view.assignment(a).planned_end)
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
    use crate::task::{Assignment, AssignmentId, TaskSpec, TaskState};
    use clamshell_crowd::WorkerId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Two active tasks: task 0 started at 0s, finishes at 100s (one
    /// worker); task 1 started at 5s, finishes at 20s (two workers).
    fn fixture() -> (Vec<TaskState>, Vec<Assignment>) {
        let mk_assign = |id: u32, task: u32, start: u64, end: u64| Assignment {
            id: AssignmentId(id),
            task: TaskId(task),
            worker: WorkerId(id),
            start: t(start),
            planned_end: t(end),
            terminated: None,
            completed: None,
        };
        let assignments =
            vec![mk_assign(0, 0, 0, 100), mk_assign(1, 1, 5, 20), mk_assign(2, 1, 6, 50)];
        let mut t0 = TaskState::new(TaskSpec::new(vec![0]), 0, t(0));
        t0.active.push(AssignmentId(0));
        let mut t1 = TaskState::new(TaskSpec::new(vec![0]), 0, t(0));
        t1.active.push(AssignmentId(1));
        t1.active.push(AssignmentId(2));
        (vec![t0, t1], assignments)
    }

    #[test]
    fn empty_eligible_routes_nowhere() {
        let (tasks, assignments) = fixture();
        let view = StateView::full(&tasks, &assignments);
        let mut rng = Rng::new(1);
        assert_eq!(route(RoutingPolicy::Random, &[], &view, &mut rng), None);
    }

    #[test]
    fn longest_running_picks_earliest_start() {
        let (tasks, assignments) = fixture();
        let view = StateView::full(&tasks, &assignments);
        let mut rng = Rng::new(1);
        let pick = route(RoutingPolicy::LongestRunning, &[TaskId(0), TaskId(1)], &view, &mut rng);
        assert_eq!(pick, Some(TaskId(0))); // started at 0s vs 5s
    }

    #[test]
    fn fewest_workers_picks_thin_task() {
        let (tasks, assignments) = fixture();
        let view = StateView::full(&tasks, &assignments);
        let mut rng = Rng::new(1);
        let pick = route(RoutingPolicy::FewestWorkers, &[TaskId(0), TaskId(1)], &view, &mut rng);
        assert_eq!(pick, Some(TaskId(0))); // 1 live assignment vs 2
    }

    #[test]
    fn oracle_picks_latest_finishing() {
        let (tasks, assignments) = fixture();
        let view = StateView::full(&tasks, &assignments);
        let mut rng = Rng::new(1);
        let pick = route(RoutingPolicy::Oracle, &[TaskId(0), TaskId(1)], &view, &mut rng);
        // Task 0's earliest completion is 100s; task 1's is 20s.
        assert_eq!(pick, Some(TaskId(0)));
    }

    #[test]
    fn base_offset_view_routes_like_the_full_view() {
        // Same fixture, but presented as the live tail of a longer run:
        // every id shifted up by the bases the retired prefix left behind.
        let (tasks, mut assignments) = fixture();
        let (tb, ab) = (10u32, 20u32);
        let mut shifted_tasks = tasks.clone();
        for t in &mut shifted_tasks {
            for a in &mut t.active {
                *a = AssignmentId(a.0 + ab);
            }
        }
        for a in &mut assignments {
            a.id = AssignmentId(a.id.0 + ab);
            a.task = TaskId(a.task.0 + tb);
        }
        let view = StateView {
            tasks: &shifted_tasks,
            assignments: &assignments,
            task_base: tb,
            assignment_base: ab,
        };
        let eligible = [TaskId(tb), TaskId(tb + 1)];
        for policy in
            [RoutingPolicy::LongestRunning, RoutingPolicy::FewestWorkers, RoutingPolicy::Oracle]
        {
            let mut rng = Rng::new(1);
            let pick = route(policy, &eligible, &view, &mut rng);
            assert_eq!(pick, Some(TaskId(tb)), "{policy:?} must resolve offset ids");
        }
    }

    #[test]
    fn random_covers_all_eligible() {
        let (tasks, assignments) = fixture();
        let view = StateView::full(&tasks, &assignments);
        let mut rng = Rng::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            if let Some(p) = route(RoutingPolicy::Random, &[TaskId(0), TaskId(1)], &view, &mut rng)
            {
                seen.insert(p);
            }
        }
        assert_eq!(seen.len(), 2);
    }
}
