//! The full-run learning loop: active / passive / hybrid (§5).
//!
//! Each iteration selects points for the crowd to label, runs them as a
//! batch on the [`Runner`], folds the (noisy, majority-aggregated) crowd
//! labels into the training set, and retrains. Retraining is *actually
//! performed* (real SGD on the real features); only its wall-clock cost —
//! the paper's "decision latency" — is simulated, since our host CPU time
//! has no relation to the paper's.
//!
//! * **Active** (`AL`): `k` points by uncertainty sampling per iteration,
//!   retraining blocks the next selection (the classic loop the paper
//!   criticises for limiting parallelism).
//! * **Passive** (`PL`): `p` random points per iteration (full pool
//!   parallelism, no selection signal).
//! * **Hybrid** (`HL`, §5.1): `k = r·p` uncertain + `p − k` random points,
//!   so "each worker in the pool has at least one point to label";
//!   asynchronous (pipelined) retraining hides decision latency behind
//!   crowd labeling at the price of slightly stale selection models
//!   (§5.3).

use crate::config::RunConfig;
use crate::metrics::RunReport;
use crate::runner::Runner;
use crate::task::TaskSpec;
use clamshell_learn::eval::{accuracy, LearningCurve};
use clamshell_learn::model::{new_classifier, Classifier, Example, SgdConfig};
use clamshell_learn::sampling::{select_random, select_uncertain, Uncertainty};
use clamshell_learn::Dataset;
use clamshell_sim::rng::Rng;
use clamshell_sim::time::{SimDuration, SimTime};
use clamshell_trace::Population;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Point-selection strategy (`Alg` in Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Pure active learning with a fixed selection batch size `k`.
    Active {
        /// Points selected by uncertainty per iteration.
        k: usize,
    },
    /// Pure passive learning: the whole pool labels random points.
    Passive,
    /// CLAMShell's hybrid: a fraction `r = k/p` of the pool labels
    /// uncertain points, the rest labels random points.
    Hybrid {
        /// Fraction of the pool allocated to active selection
        /// (the paper finds `r = 0.5` works well across datasets, §5.2).
        active_frac: f64,
    },
    /// No learning: label points uniformly, never train (NL).
    NoLearn,
}

impl Strategy {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Active { .. } => "AL",
            Strategy::Passive => "PL",
            Strategy::Hybrid { .. } => "HL",
            Strategy::NoLearn => "NL",
        }
    }
}

/// Learning-loop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearningConfig {
    /// The selection strategy.
    pub strategy: Strategy,
    /// Total crowd labels to acquire.
    pub label_budget: usize,
    /// Fraction of the dataset held out for curve evaluation.
    pub test_frac: f64,
    /// Uncertainty-sampling candidate subsample size (§5.3).
    pub candidate_sample: usize,
    /// Uncertainty measure.
    pub uncertainty: Uncertainty,
    /// SGD hyper-parameters for the retrained models.
    pub sgd: SgdConfig,
    /// Pipelined (asynchronous) retraining: selection uses the latest
    /// *finished* model rather than blocking (§5.3). CLAMShell turns this
    /// on; classic AL baselines block.
    pub async_retrain: bool,
    /// Decision-latency model: fixed cost per retrain, seconds.
    pub decision_base_secs: f64,
    /// Decision-latency model: marginal cost per labeled point, seconds.
    pub decision_per_point_secs: f64,
    /// Weight actively-selected points by `k/p` when retraining (§5.1).
    pub weight_by_ratio: bool,
    /// Seed for the train/test split and the point-selection RNG. SGD
    /// shuffles are seeded separately, by `sgd.seed`.
    pub seed: u64,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig {
            strategy: Strategy::Hybrid { active_frac: 0.5 },
            label_budget: 500,
            test_frac: 0.3,
            candidate_sample: 400,
            uncertainty: Uncertainty::LeastConfidence,
            sgd: SgdConfig::default(),
            async_retrain: true,
            decision_base_secs: 1.0,
            decision_per_point_secs: 0.02,
            weight_by_ratio: true,
            seed: 0,
        }
    }
}

/// Everything a learning run produces.
#[derive(Debug)]
pub struct LearningOutcome {
    /// Accuracy-over-time/labels curve (one point per retrain).
    pub curve: LearningCurve,
    /// The underlying crowd run report.
    pub report: RunReport,
    /// Final crowd labels per dataset row.
    pub labels: BTreeMap<usize, u32>,
    /// Strategy short name.
    pub strategy: &'static str,
    /// Final model accuracy on the held-out test set.
    pub final_accuracy: f64,
}

/// Drives a full labeling-and-learning run over a dataset.
pub struct LearningRunner<'d> {
    dataset: &'d Dataset,
    run_cfg: RunConfig,
    learn_cfg: LearningConfig,
    population: Population,
}

/// A trained model with the simulated time at which it became available.
struct ModelVersion {
    ready_at: SimTime,
    model: Box<dyn Classifier>,
}

impl<'d> LearningRunner<'d> {
    /// Build a learning runner. `run_cfg.n_classes` must match the
    /// dataset.
    pub fn new(
        dataset: &'d Dataset,
        run_cfg: RunConfig,
        learn_cfg: LearningConfig,
        population: Population,
    ) -> Self {
        assert_eq!(run_cfg.n_classes, dataset.n_classes, "config/dataset class-count mismatch");
        assert!(learn_cfg.label_budget > 0);
        LearningRunner { dataset, run_cfg, learn_cfg, population }
    }

    fn decision_latency(&self, n_points: usize) -> SimDuration {
        SimDuration::from_secs_f64(
            self.learn_cfg.decision_base_secs
                + self.learn_cfg.decision_per_point_secs * n_points as f64,
        )
    }

    /// Run to the label budget; returns the curve, report, and labels.
    pub fn run(self) -> LearningOutcome {
        let (train_rows, test_rows) =
            self.dataset.split(self.learn_cfg.test_frac, self.learn_cfg.seed);
        let test_labels: Vec<u32> = test_rows.iter().map(|&r| self.dataset.labels[r]).collect();

        let mut runner = Runner::new(self.run_cfg.clone(), self.population.clone());
        runner.warm_up();
        let run_start = runner.now();

        let mut rng = Rng::new(self.learn_cfg.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut unlabeled: Vec<usize> = train_rows.clone();
        let mut labeled: Vec<Example> = Vec::new();
        let mut label_map: BTreeMap<usize, u32> = BTreeMap::new();
        let mut curve = LearningCurve::new();
        let mut versions: Vec<ModelVersion> = Vec::new();
        let pool = self.run_cfg.pool_size;

        while labeled.len() < self.learn_cfg.label_budget && !unlabeled.is_empty() {
            // --- Selection -------------------------------------------------
            // With synchronous retraining the loop blocks until the last
            // retrain finished; with async it proceeds with the latest
            // finished (possibly stale) model.
            if !self.learn_cfg.async_retrain {
                if let Some(v) = versions.last() {
                    let wait = v.ready_at.since(runner.now());
                    if wait > SimDuration::ZERO {
                        runner.advance(wait);
                    }
                }
            }
            let now = runner.now();
            let current: Option<&ModelVersion> = versions.iter().rev().find(|v| v.ready_at <= now);

            let budget_left = self.learn_cfg.label_budget - labeled.len();
            let (active_k, passive_k) = match self.learn_cfg.strategy {
                Strategy::Active { k } => (k.min(budget_left), 0),
                Strategy::Passive | Strategy::NoLearn => (0, pool.min(budget_left)),
                Strategy::Hybrid { active_frac } => {
                    let k = ((pool as f64 * active_frac).round() as usize).min(pool);
                    let k = k.min(budget_left);
                    let p = (pool - k).min(budget_left - k);
                    (k, p)
                }
            };

            let mut picked: Vec<usize> = Vec::with_capacity(active_k + passive_k);
            let mut is_active = vec![false; active_k + passive_k];
            if active_k > 0 {
                let sel: Vec<usize> = match current {
                    Some(v) if v.model.is_fit() => select_uncertain(
                        v.model.as_ref(),
                        &self.dataset.features,
                        &unlabeled,
                        active_k,
                        self.learn_cfg.candidate_sample,
                        self.learn_cfg.uncertainty,
                        &mut rng,
                    ),
                    _ => select_random(&unlabeled, active_k, &mut rng),
                };
                for (i, _) in sel.iter().enumerate() {
                    is_active[i] = true;
                }
                picked.extend(sel);
            }
            if passive_k > 0 {
                // Random sample from the points not already picked.
                let remaining: Vec<usize> =
                    unlabeled.iter().copied().filter(|r| !picked.contains(r)).collect();
                picked.extend(select_random(&remaining, passive_k, &mut rng));
            }
            if picked.is_empty() {
                break;
            }

            // --- Crowd labeling -------------------------------------------
            let specs: Vec<TaskSpec> = picked
                .iter()
                .map(|&row| TaskSpec::for_rows(vec![row], vec![self.dataset.labels[row]]))
                .collect();
            let batch = runner.run_batch(specs);

            // Fold in the aggregated crowd answers.
            let k_frac = if pool > 0 { active_k as f64 / pool as f64 } else { 1.0 };
            for (i, t) in runner.tasks().iter().filter(|t| t.batch == batch).enumerate() {
                let row = t.spec.rows[0];
                let label = runner.final_labels(t).expect("batch completed")[0];
                label_map.insert(row, label);
                let weight = if self.learn_cfg.weight_by_ratio
                    && matches!(self.learn_cfg.strategy, Strategy::Hybrid { .. })
                    && is_active.get(i).copied().unwrap_or(false)
                    && k_frac > 0.0
                {
                    // Uncertain points are over-represented relative to the
                    // data distribution; down-weight them by the
                    // active-to-passive ratio k/p (§5.1).
                    k_frac
                } else {
                    1.0
                };
                labeled.push(Example::weighted(row, label, weight));
            }
            unlabeled.retain(|r| !label_map.contains_key(r));

            // --- Retrain (NL never trains) ---------------------------------
            if !matches!(self.learn_cfg.strategy, Strategy::NoLearn) {
                let mut model = new_classifier(self.dataset.n_classes, self.learn_cfg.sgd);
                model.fit(&self.dataset.features, &labeled);
                let ready_at = runner.now() + self.decision_latency(labeled.len());
                let acc =
                    accuracy(model.as_ref(), &self.dataset.features, &test_rows, &test_labels);
                curve.push(ready_at.since(run_start).as_secs_f64(), labeled.len(), acc);
                versions.push(ModelVersion { ready_at, model });
            }
        }

        let final_accuracy = curve.final_accuracy();
        let report = runner.finish();
        LearningOutcome {
            curve,
            report,
            labels: label_map,
            strategy: self.learn_cfg.strategy.name(),
            final_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_learn::datasets::generate::{make_classification, GenConfig};

    fn dataset(sep: f64, seed: u64) -> Dataset {
        make_classification(
            &GenConfig {
                n_samples: 600,
                n_features: 12,
                n_informative: 4,
                n_redundant: 2,
                class_sep: sep,
                flip_y: 0.01,
                ..Default::default()
            },
            seed,
        )
    }

    fn run_strategy(ds: &Dataset, strategy: Strategy, seed: u64) -> LearningOutcome {
        let run_cfg =
            RunConfig { pool_size: 10, ng: 1, seed, ..Default::default() }.with_straggler();
        let learn_cfg = LearningConfig {
            strategy,
            label_budget: 150,
            sgd: SgdConfig { epochs: 12, ..Default::default() },
            seed,
            ..Default::default()
        };
        LearningRunner::new(ds, run_cfg, learn_cfg, Population::mturk_live()).run()
    }

    #[test]
    fn passive_learning_learns() {
        let ds = dataset(1.8, 1);
        let out = run_strategy(&ds, Strategy::Passive, 1);
        assert!(out.final_accuracy > 0.8, "acc={}", out.final_accuracy);
        assert_eq!(out.labels.len(), 150);
        assert!(!out.curve.points.is_empty());
    }

    #[test]
    fn active_learning_learns() {
        let ds = dataset(1.8, 2);
        let out = run_strategy(&ds, Strategy::Active { k: 10 }, 2);
        assert!(out.final_accuracy > 0.8, "acc={}", out.final_accuracy);
    }

    #[test]
    fn hybrid_learning_learns() {
        let ds = dataset(1.8, 1);
        let out = run_strategy(&ds, Strategy::Hybrid { active_frac: 0.5 }, 1);
        assert!(out.final_accuracy > 0.8, "acc={}", out.final_accuracy);
        assert_eq!(out.strategy, "HL");
    }

    #[test]
    fn hybrid_at_least_matches_worse_of_al_pl() {
        // The paper's Figure 15/16 claim: "In all cases, hybrid performs
        // as well as or better than either active or passive learning."
        // Allow a small tolerance per seed; require it on average.
        let mut hl_sum = 0.0;
        let mut floor_sum = 0.0;
        for seed in [1u64, 3, 4] {
            let ds = dataset(1.8, seed);
            let al = run_strategy(&ds, Strategy::Active { k: 10 }, seed).final_accuracy;
            let pl = run_strategy(&ds, Strategy::Passive, seed).final_accuracy;
            let hl = run_strategy(&ds, Strategy::Hybrid { active_frac: 0.5 }, seed).final_accuracy;
            assert!(hl >= al.min(pl) - 0.05, "seed {seed}: hl={hl} al={al} pl={pl}");
            hl_sum += hl;
            floor_sum += al.min(pl);
        }
        assert!(hl_sum >= floor_sum - 0.06, "hl_sum={hl_sum} floor={floor_sum}");
    }

    #[test]
    fn nolearn_labels_without_model() {
        let ds = dataset(1.8, 4);
        let out = run_strategy(&ds, Strategy::NoLearn, 4);
        assert_eq!(out.labels.len(), 150);
        assert!(out.curve.points.is_empty());
        assert_eq!(out.final_accuracy, 0.0);
    }

    #[test]
    fn curve_is_monotone_in_labels_and_time() {
        let ds = dataset(1.5, 5);
        let out = run_strategy(&ds, Strategy::Passive, 5);
        let pts = &out.curve.points;
        assert!(pts.windows(2).all(|w| w[0].labels_acquired < w[1].labels_acquired));
        assert!(pts.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
    }

    #[test]
    fn budget_respected_exactly() {
        let ds = dataset(1.5, 6);
        let out = run_strategy(&ds, Strategy::Hybrid { active_frac: 0.5 }, 6);
        assert_eq!(out.labels.len(), 150);
        // No row labeled twice (cache property).
        assert_eq!(out.labels.keys().collect::<std::collections::BTreeSet<_>>().len(), 150);
    }

    #[test]
    fn async_is_not_slower_than_sync() {
        // Pipelined retraining should never make the run take longer.
        let ds = dataset(1.5, 7);
        let mk = |async_retrain: bool| {
            let run_cfg = RunConfig { pool_size: 10, ng: 1, seed: 7, ..Default::default() };
            let learn_cfg = LearningConfig {
                strategy: Strategy::Active { k: 10 },
                label_budget: 100,
                async_retrain,
                decision_base_secs: 10.0, // exaggerate decision latency
                sgd: SgdConfig { epochs: 8, ..Default::default() },
                seed: 7,
                ..Default::default()
            };
            LearningRunner::new(&ds, run_cfg, learn_cfg, Population::mturk_live())
                .run()
                .report
                .total_secs()
        };
        let async_secs = mk(true);
        let sync_secs = mk(false);
        assert!(async_secs <= sync_secs, "async={async_secs} sync={sync_secs}");
    }
}
