//! Streamed sweep cells: run every job of a grid in streaming service
//! mode, fanned out across threads.
//!
//! A sweep [`Job`] is already a pure `(RunConfig, specs, seed)` cell;
//! streaming it just swaps the executor: each cell's spec list becomes
//! the (finite) prefix of a task stream and runs through
//! [`run_stream_with`] instead of `run_batched`, collecting its
//! checkpoints. Results come back in grid enumeration order regardless
//! of thread count ([`pool::map`] reorders), so streamed sweep output
//! is byte-identical at any `CLAMSHELL_THREADS` — the same invariance
//! contract the batched sweep upholds.

use crate::checkpoint::StreamCheckpoint;
use crate::engine::{run_stream_with, StreamConfig, StreamOutcome};
use clamshell_sweep::job::Job;
use clamshell_sweep::pool;

/// Run `jobs` in streaming mode on `threads` workers, returning one
/// [`StreamOutcome`] per job, with every checkpoint it emitted, in
/// job-index order.
pub fn run_jobs_streamed(
    jobs: Vec<Job>,
    threads: usize,
    stream: &StreamConfig,
) -> Vec<(StreamOutcome, Vec<StreamCheckpoint>)> {
    pool::map(jobs, threads, |_, _, job: Job| {
        let mut checkpoints = Vec::new();
        let outcome = run_stream_with(
            job.cfg.clone(),
            (*job.population).clone(),
            job.specs.iter().cloned(),
            job.specs.len(),
            job.batch_size,
            stream,
            |c| checkpoints.push(c.clone()),
        );
        (outcome, checkpoints)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_core::task::TaskSpec;
    use clamshell_core::RunConfig;
    use clamshell_trace::Population;
    use std::sync::Arc;

    fn jobs(n: usize) -> Vec<Job> {
        let specs: Arc<Vec<TaskSpec>> =
            Arc::new((0..10).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect());
        let population = Arc::new(Population::mturk_live());
        (0..n)
            .map(|i| {
                let seed = 20 + i as u64;
                Job {
                    index: i,
                    scenario: 0,
                    label: "stream".into(),
                    seed,
                    cfg: RunConfig { pool_size: 4, ng: 2, seed, ..Default::default() },
                    specs: specs.clone(),
                    batch_size: 4,
                    population: population.clone(),
                }
            })
            .collect()
    }

    #[test]
    fn streamed_cells_are_thread_invariant() {
        let stream = StreamConfig { rate_per_sec: 2.0, checkpoint_every: 4, retire: true };
        let one = run_jobs_streamed(jobs(5), 1, &stream);
        let four = run_jobs_streamed(jobs(5), 4, &stream);
        assert_eq!(one.len(), 5);
        for ((a, a_seen), (b, b_seen)) in one.iter().zip(&four) {
            assert_eq!(a_seen, b_seen);
            assert_eq!(a_seen.len(), a.checkpoints.len());
            assert_eq!(a.digest.values(), b.digest.values());
        }
    }
}
