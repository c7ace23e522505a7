//! Property-based checkpoint/resume equivalence: the sharded executor's
//! load-bearing contract, checked over arbitrary `(grid shape, shard
//! size, kill point, thread count)` tuples.
//!
//! For every sampled tuple the same grid is folded three ways —
//!
//! 1. unsharded, serial (`Grid::run_streaming` on one thread): the
//!    reference bits;
//! 2. sharded on `threads` workers, cancelled after `kill_after`
//!    delivered cells (simulating a mid-sweep kill);
//! 3. resumed from the manifest into a **fresh** aggregator
//!    (simulating a new process).
//!
//! The resumed fold's `snapshot_words()` must equal the reference
//! exactly — every f64 bit pattern, across every sampled shape. This is
//! the property the hand-picked cases in `shard.rs` pin pointwise; here
//! the shapes are adversarial: shards that divide the grid evenly,
//! shards larger than the grid, single-cell shards, kills on and off
//! checkpoint boundaries.
//!
//! Before the resume, the killed manifest's final line is cut at a
//! sampled byte offset, as a kill in the middle of an append would leave
//! it. Because the manifest is append-only, the finished file must then
//! be byte-identical to an uninterrupted run's manifest.
//!
//! A power loss can cost more than the final line: every line written
//! since the last group-commit sync may go, plus a torn one. The second
//! property cuts a finished manifest at any byte after its header and
//! resumes it to the same bytes.

use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sweep::shard::{run_sharded, ShardOptions};
use clamshell_sweep::{CancelToken, Grid, Metric, MetricsAggregator};
use clamshell_trace::Population;
use proptest::prelude::*;
use std::path::PathBuf;

/// A grid with `n_seeds` seeds and `n_scenarios` of the standard
/// adversity scenarios; cells stay small so a case runs in milliseconds.
fn shaped_grid(n_seeds: usize, n_scenarios: usize) -> Grid {
    let specs: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
    let seeds: Vec<u64> = (1..=n_seeds as u64).collect();
    let mut g = Grid::new(
        RunConfig { pool_size: 4, ng: 2, ..Default::default() },
        Population::mturk_live(),
        specs,
        4,
    )
    .seeds(&seeds)
    .scenario("sm", |c| c.straggler = Some(Default::default()));
    if n_scenarios >= 2 {
        g = g.scenario("nosm", |c| c.straggler = None);
    }
    if n_scenarios >= 3 {
        g = g.scenario("small", |c| c.pool_size = 2);
    }
    g
}

fn fresh_agg(g: &Grid) -> MetricsAggregator {
    MetricsAggregator::new(g.n_scenarios(), Metric::standard())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded + killed + resumed == unsharded serial, bit for bit.
    #[test]
    fn sharded_resume_is_bit_identical_to_serial(
        n_seeds in 1usize..5,
        n_scenarios in 1usize..4,
        shard_size in 1usize..9,
        kill_raw in 0usize..64,
        threads in 1usize..5,
        tear_raw in 0usize..4096,
    ) {
        let g = shaped_grid(n_seeds, n_scenarios);
        let kill_after = 1 + kill_raw % g.n_jobs();
        let path: PathBuf = std::env::temp_dir().join(format!(
            "clamshell_shard_prop_{n_seeds}_{n_scenarios}_{shard_size}_{kill_after}_{threads}.jsonl"
        ));
        let _ = std::fs::remove_file(&path);

        // 1. The unsharded serial reference fold, and the manifest of an
        // uninterrupted sharded run.
        let mut reference = fresh_agg(&g);
        let status = g.run_streaming(Some(1), &mut reference);
        prop_assert!(status.is_complete());
        let reference = reference.snapshot_words();
        let opts = ShardOptions {
            shard_size,
            manifest: path.clone(),
            resume: false,
            threads: Some(threads),
        };
        prop_assert!(run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None)
            .unwrap()
            .is_complete());
        let uninterrupted = std::fs::read(&path).unwrap();

        // 2. Sharded on `threads` workers, killed mid-sweep.
        let cancel = CancelToken::new();
        let cancel_ref = &cancel;
        let mut agg = fresh_agg(&g);
        let out = run_sharded(
            &g,
            &mut agg,
            &opts,
            &cancel,
            Some(&mut |done, _| {
                if done == kill_after {
                    cancel_ref.cancel();
                }
            }),
        )
        .unwrap();

        if out.is_complete() {
            // The kill landed after the final delivery: the sharded
            // fold itself must already match the reference.
            prop_assert_eq!(agg.snapshot_words(), reference);
        } else {
            prop_assert!(out.cancelled);
            // Tear the final line at a sampled offset (a cut at its full
            // length leaves the file intact). A torn shard line is an
            // unrecorded shard; a torn header restarts the sweep.
            let killed = std::fs::read(&path).unwrap();
            let last_start =
                killed[..killed.len() - 1].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let cut = last_start + tear_raw % (killed.len() - last_start + 1);
            std::fs::write(&path, &killed[..cut]).unwrap();
            let recorded = if cut < killed.len() {
                out.shards_completed.saturating_sub(1)
            } else {
                out.shards_completed
            };

            // 3. A "new process": fresh aggregator, resume from the
            // manifest, finish the sweep.
            let opts = ShardOptions { resume: true, ..opts };
            let mut resumed = fresh_agg(&g);
            let out2 = run_sharded(&g, &mut resumed, &opts, &CancelToken::new(), None).unwrap();
            prop_assert!(out2.is_complete());
            prop_assert_eq!(out2.resumed_shards, recorded);
            prop_assert_eq!(resumed.snapshot_words(), reference);
        }
        prop_assert!(std::fs::read(&path).unwrap() == uninterrupted, "manifest differs");
        let _ = std::fs::remove_file(&path);
    }

    /// A manifest cut at any byte after its header (whole lines lost
    /// plus a torn one, as a power loss leaves it) resumes to the
    /// uninterrupted run's manifest and the serial reference bits.
    #[test]
    fn power_loss_at_any_byte_resumes_to_the_uninterrupted_manifest(
        n_seeds in 1usize..5,
        n_scenarios in 1usize..4,
        shard_size in 1usize..9,
        threads in 1usize..5,
        cut_raw in 0usize..1 << 20,
    ) {
        let g = shaped_grid(n_seeds, n_scenarios);
        let path: PathBuf = std::env::temp_dir().join(format!(
            "clamshell_shard_prop_loss_{n_seeds}_{n_scenarios}_{shard_size}_{threads}.jsonl"
        ));
        let mut reference = fresh_agg(&g);
        prop_assert!(g.run_streaming(Some(1), &mut reference).is_complete());
        let reference = reference.snapshot_words();
        let opts = ShardOptions {
            shard_size,
            manifest: path.clone(),
            resume: false,
            threads: Some(threads),
        };
        prop_assert!(run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None)
            .unwrap()
            .is_complete());
        let uninterrupted = std::fs::read(&path).unwrap();

        let header_end = uninterrupted.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut = header_end + cut_raw % (uninterrupted.len() - header_end + 1);
        std::fs::write(&path, &uninterrupted[..cut]).unwrap();
        let recorded = uninterrupted[..cut].iter().filter(|&&b| b == b'\n').count() - 1;

        let opts = ShardOptions { resume: true, ..opts };
        let mut resumed = fresh_agg(&g);
        let out = run_sharded(&g, &mut resumed, &opts, &CancelToken::new(), None).unwrap();
        prop_assert!(out.is_complete());
        prop_assert_eq!(out.resumed_shards, recorded);
        prop_assert_eq!(resumed.snapshot_words(), reference);
        prop_assert!(std::fs::read(&path).unwrap() == uninterrupted, "manifest differs");
        let _ = std::fs::remove_file(&path);
    }
}
