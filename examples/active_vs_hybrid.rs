//! Train a classifier with crowd labels three ways — pure active, pure
//! passive, and CLAMShell's hybrid — on an easy and a hard dataset, and
//! watch hybrid track the better of the two (§5.1 / Figure 15).
//!
//! The three strategies are independent runs, so they fan out across
//! the sweep engine's threads; results come back in
//! submission order, so the printout is identical at any thread count
//! (set `CLAMSHELL_THREADS` to experiment).
//!
//! ```text
//! cargo run --release --example active_vs_hybrid
//! ```

use clamshell::prelude::*;
use clamshell::sweep::{pool, threads};

fn run(ds: &Dataset, strategy: Strategy, seed: u64) -> LearningOutcome {
    let run_cfg =
        RunConfig { pool_size: 10, ng: 1, n_classes: ds.n_classes, seed, ..Default::default() }
            .with_straggler();
    let learn_cfg = LearningConfig {
        strategy,
        label_budget: 200,
        sgd: SgdConfig { epochs: 15, ..Default::default() },
        seed,
        ..Default::default()
    };
    LearningRunner::new(ds, run_cfg, learn_cfg, Population::mturk_live()).run()
}

fn main() {
    let easy = make_classification(&GenConfig::with_hardness(0), 1);
    let hard = make_classification(&GenConfig::with_hardness(2), 2);

    for (name, ds) in [("easy", &easy), ("hard", &hard)] {
        println!("{name} dataset ({} features):", ds.dims());
        let strategies =
            [Strategy::Active { k: 5 }, Strategy::Passive, Strategy::Hybrid { active_frac: 0.5 }];
        let outcomes = pool::map(strategies.to_vec(), threads::resolve(None), |_, _, strategy| {
            run(ds, strategy, 9)
        });
        for out in outcomes {
            let t80 = out
                .curve
                .time_to_accuracy(0.8)
                .map(|t| format!("{t:.0}s"))
                .unwrap_or_else(|| "never".into());
            println!(
                "  {:<3} final accuracy {:.3} | 80% reached at {:>6} | {} labels in {:.0}s",
                out.strategy,
                out.final_accuracy,
                t80,
                out.labels.len(),
                out.report.total_secs(),
            );
        }
        println!();
    }
    println!("hybrid should track the better strategy on both datasets.");
}
