//! Tasks, assignments, and their lifecycles.
//!
//! Terminology from §4.1: a *task* is "either active, complete, or
//! unassigned"; an *assignment* is one worker's attempt at one task.
//! Straggler mitigation creates multiple concurrent assignments per task;
//! the first completed assignment(s) win and the rest are terminated.

use clamshell_crowd::WorkerId;
use clamshell_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Task identifier (index into the runner's task table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

/// Assignment identifier (index into the runner's assignment table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AssignmentId(pub u32);

/// The immutable description of a labeling task: the ground-truth classes
/// of the `Ng` records grouped into it. (Ground truth exists only inside
/// the simulator — workers sample noisy answers from it.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// True class of each record in the task.
    pub truths: Vec<u32>,
    /// Optional dataset row backing each record (used by the learning
    /// loop to map crowd answers back to points).
    pub rows: Vec<usize>,
}

impl TaskSpec {
    /// A task with the given record truths and no dataset backing.
    pub fn new(truths: Vec<u32>) -> Self {
        assert!(!truths.is_empty(), "task must contain records");
        TaskSpec { rows: Vec::new(), truths }
    }

    /// A task backed by dataset rows.
    pub fn for_rows(rows: Vec<usize>, truths: Vec<u32>) -> Self {
        assert_eq!(rows.len(), truths.len());
        assert!(!truths.is_empty(), "task must contain records");
        TaskSpec { rows, truths }
    }

    /// Number of records (`Ng`).
    pub fn ng(&self) -> u32 {
        self.truths.len() as u32
    }
}

/// A contiguous span of labels inside the runner's shared label arena.
///
/// Response and final-label vectors used to be one heap allocation per
/// completed assignment (and one more per completed task) — the last
/// per-assignment allocations in the hot loop. They now live
/// back-to-back in a single run-wide arena
/// ([`Runner::label_arena`](crate::runner::Runner::labels)), and task
/// state stores only this `(start, len)` handle. Resolve a span with
/// [`LabelSpan::slice`] against the owning runner's arena; spans are
/// only meaningful against the arena they were created in, and die with
/// their tasks when the runner retires completed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelSpan {
    /// Arena offset of the first label.
    pub start: u32,
    /// Number of labels in the span.
    pub len: u32,
}

impl LabelSpan {
    /// The empty span (no labels).
    pub fn empty() -> Self {
        LabelSpan { start: 0, len: 0 }
    }

    /// Resolve the span against its owning arena.
    pub fn slice<'a>(&self, arena: &'a [u32]) -> &'a [u32] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// One completed answer for a task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskResponse {
    /// Who answered.
    pub worker: WorkerId,
    /// Labels for each record of the task (a span into the runner's
    /// label arena — see [`LabelSpan`]).
    pub labels: LabelSpan,
    /// When the answer arrived.
    pub at: SimTime,
    /// How long the winning assignment took.
    pub latency: SimDuration,
    /// Tasks the worker had completed in the pool before this one
    /// ("worker age", Figure 5's x-axis).
    pub worker_age: u32,
}

/// Mutable task state tracked by the runner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskState {
    /// The task description.
    pub spec: TaskSpec,
    /// Batch index this task belongs to.
    pub batch: usize,
    /// When the task became eligible (batch start).
    pub created: SimTime,
    /// Collected answers (completed assignments).
    pub responses: Vec<TaskResponse>,
    /// Currently running assignments.
    pub active: Vec<AssignmentId>,
    /// Completion time, once quorum is met.
    pub completed_at: Option<SimTime>,
    /// Majority-aggregated labels, once complete (a span into the
    /// runner's label arena — see [`LabelSpan`]).
    pub final_labels: Option<LabelSpan>,
}

impl TaskState {
    /// Fresh state for a spec in `batch` at time `created`.
    pub fn new(spec: TaskSpec, batch: usize, created: SimTime) -> Self {
        TaskState {
            spec,
            batch,
            created,
            responses: Vec::new(),
            active: Vec::new(),
            completed_at: None,
            final_labels: None,
        }
    }

    /// Whether `worker` already holds or held a live/completed assignment
    /// for this task (a worker never works the same task twice).
    /// `assignment_base` is the id of `assignments[0]` — zero for a
    /// whole-run table, non-zero once the runner has retired completed
    /// state (see [`StateView`]).
    pub fn has_worker(
        &self,
        worker: WorkerId,
        assignments: &[Assignment],
        assignment_base: u32,
    ) -> bool {
        self.responses.iter().any(|r| r.worker == worker)
            || self
                .active
                .iter()
                .any(|&a| assignments[(a.0 - assignment_base) as usize].worker == worker)
    }
}

/// One worker × task execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Its id.
    pub id: AssignmentId,
    /// The task being attempted.
    pub task: TaskId,
    /// The worker attempting it.
    pub worker: WorkerId,
    /// Start time.
    pub start: SimTime,
    /// When the worker would finish if not terminated.
    pub planned_end: SimTime,
    /// Set when straggler mitigation or eviction kills the assignment.
    pub terminated: Option<SimTime>,
    /// Set when the assignment completed and produced an answer.
    pub completed: Option<SimTime>,
}

/// A borrowed, base-offset view over the runner's task and assignment
/// tables.
///
/// Ids ([`TaskId`], [`AssignmentId`]) are *stream positions*: they keep
/// growing for the lifetime of a run. In batch mode they coincide with
/// table indices, but the streaming service mode retires completed-task
/// state at batch boundaries to keep memory bounded, after which the
/// tables hold only the live tail and `tasks[0]` has id `task_base`.
/// This view packages the slices with their bases so policy code (e.g.
/// [`route`](crate::lifeguard::route)) resolves ids identically in both
/// modes.
pub struct StateView<'a> {
    /// The (possibly retired-prefix) task table.
    pub tasks: &'a [TaskState],
    /// The (possibly retired-prefix) assignment table.
    pub assignments: &'a [Assignment],
    /// Id of `tasks[0]`.
    pub task_base: u32,
    /// Id of `assignments[0]`.
    pub assignment_base: u32,
}

impl<'a> StateView<'a> {
    /// A view over whole-run tables (ids are plain indices).
    pub fn full(tasks: &'a [TaskState], assignments: &'a [Assignment]) -> Self {
        StateView { tasks, assignments, task_base: 0, assignment_base: 0 }
    }

    /// Resolve a task id.
    pub fn task(&self, id: TaskId) -> &'a TaskState {
        &self.tasks[(id.0 - self.task_base) as usize]
    }

    /// Resolve an assignment id.
    pub fn assignment(&self, id: AssignmentId) -> &'a Assignment {
        &self.assignments[(id.0 - self.assignment_base) as usize]
    }
}

impl Assignment {
    /// Is this assignment still running at all?
    pub fn is_live(&self) -> bool {
        self.terminated.is_none() && self.completed.is_none()
    }

    /// Wall-clock span of the assignment as it actually ended (terminated
    /// early, completed, or `None` if still live).
    pub fn span(&self) -> Option<SimDuration> {
        self.terminated.or(self.completed).map(|end| end.since(self.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn label_span_resolves_against_arena() {
        let arena = vec![9, 8, 7, 6, 5];
        assert_eq!(LabelSpan { start: 1, len: 3 }.slice(&arena), &[8, 7, 6]);
        assert_eq!(LabelSpan::empty().slice(&arena), &[] as &[u32]);
        assert_eq!(LabelSpan::empty().slice(&[]), &[] as &[u32]);
    }

    #[test]
    fn spec_ng() {
        assert_eq!(TaskSpec::new(vec![0, 1, 0]).ng(), 3);
    }

    #[test]
    #[should_panic]
    fn empty_spec_rejected() {
        let _ = TaskSpec::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn mismatched_rows_rejected() {
        let _ = TaskSpec::for_rows(vec![1, 2], vec![0]);
    }

    #[test]
    fn has_worker_checks_both_live_and_answered() {
        let mut ts = TaskState::new(TaskSpec::new(vec![0]), 0, t(0));
        let assignments = vec![Assignment {
            id: AssignmentId(0),
            task: TaskId(0),
            worker: WorkerId(7),
            start: t(0),
            planned_end: t(10),
            terminated: None,
            completed: None,
        }];
        assert!(!ts.has_worker(WorkerId(7), &assignments, 0));
        ts.active.push(AssignmentId(0));
        assert!(ts.has_worker(WorkerId(7), &assignments, 0));
        ts.active.clear();
        ts.responses.push(TaskResponse {
            worker: WorkerId(7),
            labels: LabelSpan::empty(),
            at: t(3),
            latency: SimDuration::from_secs(3),
            worker_age: 0,
        });
        assert!(ts.has_worker(WorkerId(7), &assignments, 0));
        assert!(!ts.has_worker(WorkerId(8), &assignments, 0));
    }

    #[test]
    fn state_view_resolves_base_offset_ids() {
        let a = Assignment {
            id: AssignmentId(5),
            task: TaskId(3),
            worker: WorkerId(9),
            start: t(1),
            planned_end: t(2),
            terminated: None,
            completed: None,
        };
        let mut ts = TaskState::new(TaskSpec::new(vec![0]), 2, t(0));
        ts.active.push(AssignmentId(5));
        let tasks = vec![ts];
        let assignments = vec![a];
        let view = StateView {
            tasks: &tasks,
            assignments: &assignments,
            task_base: 3,
            assignment_base: 5,
        };
        assert_eq!(view.task(TaskId(3)).batch, 2);
        assert_eq!(view.assignment(AssignmentId(5)).worker, WorkerId(9));
        assert!(tasks[0].has_worker(WorkerId(9), &assignments, 5));
        let full = StateView::full(&tasks, &assignments);
        assert_eq!(full.task_base, 0);
    }

    #[test]
    fn assignment_span() {
        let mut a = Assignment {
            id: AssignmentId(0),
            task: TaskId(0),
            worker: WorkerId(0),
            start: t(10),
            planned_end: t(30),
            terminated: None,
            completed: None,
        };
        assert!(a.is_live());
        assert_eq!(a.span(), None);
        a.terminated = Some(t(15));
        assert_eq!(a.span(), Some(SimDuration::from_secs(5)));
        assert!(!a.is_live());
    }
}
