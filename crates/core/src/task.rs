//! Tasks, assignments, and their lifecycles.
//!
//! Terminology from §4.1: a *task* is "either active, complete, or
//! unassigned"; an *assignment* is one worker's attempt at one task.
//! Straggler mitigation creates multiple concurrent assignments per task;
//! the first completed assignment(s) win and the rest are terminated.

use clamshell_crowd::WorkerId;
use clamshell_sim::time::{SimDuration, SimTime};

/// Task identifier (index into the runner's task table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Assignment identifier (index into the runner's assignment table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AssignmentId(pub u32);

/// The immutable description of a labeling task: the ground-truth classes
/// of the `Ng` records grouped into it. (Ground truth exists only inside
/// the simulator — workers sample noisy answers from it.)
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
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

    /// Answers still needed before the task reaches a `quorum` of votes
    /// (zero once it has).
    pub fn votes_needed(&self, quorum: u32) -> u32 {
        quorum.saturating_sub(self.responses.len() as u32)
    }
}

/// One worker × task execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The runner's task and assignment tables, addressed by id.
///
/// Ids ([`TaskId`], [`AssignmentId`]) are *stream positions*: they keep
/// growing for the lifetime of a run. In batch mode they coincide with
/// table indices, but the streaming service mode retires completed state
/// at batch boundaries (`TaskTable::retire`) to keep memory bounded,
/// after which the tables hold only the live tail and `tasks[0]` has id
/// `task_base`. Every id lookup goes through this type, so runner and
/// policy code (e.g. [`route`](crate::lifeguard::route)) resolve ids the
/// same way in both modes.
///
/// The current batch is the task table's tail: a batch's ids are
/// consecutive, and every earlier task is complete when the next batch
/// starts.
#[derive(Debug, Default)]
pub struct TaskTable {
    tasks: Vec<TaskState>,
    assignments: Vec<Assignment>,
    /// Id of `tasks[0]`.
    task_base: u32,
    /// Id of `assignments[0]`.
    assignment_base: u32,
    /// Index in `tasks` of the current batch's first task.
    batch_start: usize,
}

impl TaskTable {
    /// Every task state held: the current batch and the completed tasks
    /// not yet retired, in id order.
    pub fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    /// Resolve a task id.
    pub fn task(&self, id: TaskId) -> &TaskState {
        &self.tasks[(id.0 - self.task_base) as usize]
    }

    pub(crate) fn task_mut(&mut self, id: TaskId) -> &mut TaskState {
        &mut self.tasks[(id.0 - self.task_base) as usize]
    }

    /// Resolve an assignment id.
    pub fn assignment(&self, id: AssignmentId) -> &Assignment {
        &self.assignments[(id.0 - self.assignment_base) as usize]
    }

    pub(crate) fn assignment_mut(&mut self, id: AssignmentId) -> &mut Assignment {
        &mut self.assignments[(id.0 - self.assignment_base) as usize]
    }

    /// The assignment for `id` if it is still live; `None` for stale
    /// ids. An id can be stale two ways — the assignment was terminated
    /// or completed earlier, or `TaskTable::retire` dropped it — and
    /// retired assignments are all dead, so both read as dead.
    pub fn live(&self, id: AssignmentId) -> Option<Assignment> {
        let ix = id.0.checked_sub(self.assignment_base)?;
        let a = self.assignments[ix as usize];
        a.is_live().then_some(a)
    }

    /// Whether `worker` already holds or held a live/completed assignment
    /// for `task` (a worker never works the same task twice).
    pub fn has_worker(&self, task: &TaskState, worker: WorkerId) -> bool {
        task.responses.iter().any(|r| r.worker == worker)
            || task.active.iter().any(|&a| self.assignment(a).worker == worker)
    }

    /// The current batch's tasks with their ids, in id order.
    pub fn batch(&self) -> impl ExactSizeIterator<Item = (TaskId, &TaskState)> {
        let first = self.task_base + self.batch_start as u32;
        self.tasks[self.batch_start..]
            .iter()
            .enumerate()
            .map(move |(i, t)| (TaskId(first + i as u32), t))
    }

    /// Begin a new batch: the tasks pushed from now on form it.
    pub(crate) fn start_batch(&mut self) {
        self.batch_start = self.tasks.len();
    }

    /// Append a task; returns its id.
    pub(crate) fn push_task(&mut self, state: TaskState) -> TaskId {
        let id = TaskId(self.task_base + self.tasks.len() as u32);
        self.tasks.push(state);
        id
    }

    /// Append a live assignment of `task` to `worker` and attach it to
    /// the task's active set; returns its id.
    pub(crate) fn push_assignment(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        start: SimTime,
        planned_end: SimTime,
    ) -> AssignmentId {
        let id = AssignmentId(self.assignment_base + self.assignments.len() as u32);
        self.assignments.push(Assignment {
            id,
            task,
            worker,
            start,
            planned_end,
            terminated: None,
            completed: None,
        });
        self.task_mut(task).active.push(id);
        id
    }

    /// Pre-size the tables for `tasks` more tasks and `assignments` more
    /// assignments.
    pub(crate) fn reserve(&mut self, tasks: usize, assignments: usize) {
        self.tasks.reserve(tasks);
        self.assignments.reserve(assignments);
    }

    /// Drop every task and assignment (capacity kept) and move the id
    /// bases past them, so later ids keep counting up.
    ///
    /// Only valid at a batch boundary, when every task is complete —
    /// which also means every assignment is dead (a task's leftover
    /// replicas are terminated when it completes).
    pub(crate) fn retire(&mut self) {
        assert!(
            self.tasks.iter().all(|t| t.completed_at.is_some()),
            "retirement is a batch-boundary operation: every admitted task must be complete"
        );
        debug_assert!(
            self.assignments.iter().all(|a| !a.is_live()),
            "completed batches leave no live assignments"
        );
        self.task_base += self.tasks.len() as u32;
        self.assignment_base += self.assignments.len() as u32;
        self.tasks.clear();
        self.assignments.clear();
        self.batch_start = 0;
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
impl TaskTable {
    /// An empty table whose first `tasks` tasks and `assignments`
    /// assignments ran to completion and were retired, so new ids start
    /// at those bases.
    pub(crate) fn after_retiring(tasks: u32, assignments: u32) -> Self {
        let mut table = TaskTable::default();
        let at = SimTime::ZERO;
        for _ in 0..tasks {
            let id = table.push_task(TaskState::new(TaskSpec::new(vec![0]), 0, at));
            table.task_mut(id).completed_at = Some(at);
        }
        for _ in 0..assignments {
            let id = table.push_assignment(TaskId(0), WorkerId(0), at, at);
            table.assignment_mut(id).completed = Some(at);
            table.task_mut(TaskId(0)).active.clear();
        }
        table.retire();
        table
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
        let mut table = TaskTable::default();
        let tid = table.push_task(TaskState::new(TaskSpec::new(vec![0]), 0, t(0)));
        assert!(!table.has_worker(table.task(tid), WorkerId(7)));
        table.push_assignment(tid, WorkerId(7), t(0), t(10));
        assert!(table.has_worker(table.task(tid), WorkerId(7)));
        let task = table.task_mut(tid);
        task.active.clear();
        task.responses.push(TaskResponse {
            worker: WorkerId(7),
            labels: LabelSpan::empty(),
            at: t(3),
            latency: SimDuration::from_secs(3),
            worker_age: 0,
        });
        assert!(table.has_worker(table.task(tid), WorkerId(7)));
        assert!(!table.has_worker(table.task(tid), WorkerId(8)));
    }

    #[test]
    fn votes_needed_counts_down_to_zero() {
        let mut ts = TaskState::new(TaskSpec::new(vec![0]), 0, t(0));
        assert_eq!(ts.votes_needed(2), 2);
        let answer = TaskResponse {
            worker: WorkerId(1),
            labels: LabelSpan::empty(),
            at: t(1),
            latency: SimDuration::from_secs(1),
            worker_age: 0,
        };
        ts.responses.push(answer.clone());
        assert_eq!(ts.votes_needed(2), 1);
        ts.responses.push(answer.clone());
        ts.responses.push(answer);
        assert_eq!(ts.votes_needed(2), 0, "extra answers never underflow");
    }

    #[test]
    fn table_resolves_ids_past_a_retired_prefix() {
        let mut table = TaskTable::after_retiring(3, 5);
        let tid = table.push_task(TaskState::new(TaskSpec::new(vec![0]), 2, t(0)));
        let aid = table.push_assignment(tid, WorkerId(9), t(1), t(2));
        assert_eq!((tid, aid), (TaskId(3), AssignmentId(5)), "ids keep counting past the prefix");
        assert_eq!(table.task(TaskId(3)).batch, 2);
        assert_eq!(table.assignment(AssignmentId(5)).worker, WorkerId(9));
        assert_eq!(table.task(tid).active, vec![aid]);
        assert!(table.has_worker(table.task(tid), WorkerId(9)));
        assert_eq!(table.live(aid).map(|a| a.task), Some(tid));
        assert_eq!(table.live(AssignmentId(4)), None, "retired assignments read as dead");
        table.assignment_mut(aid).completed = Some(t(2));
        assert_eq!(table.live(aid), None, "ended assignments read as dead");
    }

    #[test]
    fn batch_is_the_table_tail_and_retire_resets_it() {
        let mut table = TaskTable::default();
        let spec = || TaskState::new(TaskSpec::new(vec![0]), 0, t(0));
        table.push_task(spec());
        table.start_batch();
        table.push_task(spec());
        table.push_task(spec());
        let ids: Vec<TaskId> = table.batch().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TaskId(1), TaskId(2)]);
        for id in 0..3 {
            table.task_mut(TaskId(id)).completed_at = Some(t(1));
        }
        table.retire();
        assert_eq!(table.batch().len(), 0);
        table.start_batch();
        table.push_task(spec());
        let ids: Vec<TaskId> = table.batch().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TaskId(3)]);
    }

    #[test]
    #[should_panic(expected = "every admitted task must be complete")]
    fn retire_rejects_incomplete_tasks() {
        let mut table = TaskTable::default();
        table.push_task(TaskState::new(TaskSpec::new(vec![0]), 0, t(0)));
        table.retire();
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
