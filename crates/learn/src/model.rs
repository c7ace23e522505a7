//! The classifier abstraction shared by learners and selection strategies.

use crate::linalg::Matrix;
use serde::{Deserialize, Serialize};

/// One training example: a row of the feature matrix, its (crowd-provided)
/// label, and a weight.
///
/// Hybrid learning weights points by the active-to-passive ratio `k/p`
/// (§5.1 "Model Retraining"), so weights are first-class here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Row index into the feature matrix.
    pub row: usize,
    /// Class label in `0..n_classes`.
    pub label: u32,
    /// Non-negative sample weight.
    pub weight: f64,
}

impl Example {
    /// Unit-weight example.
    pub fn new(row: usize, label: u32) -> Self {
        Example { row, label, weight: 1.0 }
    }

    /// Weighted example.
    pub fn weighted(row: usize, label: u32, weight: f64) -> Self {
        Example { row, label, weight }
    }
}

/// Hyper-parameters for the SGD learners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Number of passes over the training set.
    pub epochs: u32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Per-epoch multiplicative learning-rate decay.
    pub lr_decay: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            l2: 1e-4,
            epochs: 30,
            batch_size: 32,
            lr_decay: 0.97,
            seed: 0,
        }
    }
}

/// A probabilistic classifier trainable on weighted examples.
///
/// `fit` retrains from scratch on the given examples: CLAMShell retrains
/// on *all* previously observed labels after each batch (§5.1), so
/// incremental updates are unnecessary and from-scratch keeps learners
/// order-independent.
pub trait Classifier {
    /// Train on `examples`, whose `row` fields index into `x`.
    fn fit(&mut self, x: &Matrix, examples: &[Example]);

    /// Class-probability vector for a feature row (length `n_classes`).
    fn predict_proba(&self, features: &[f64]) -> Vec<f64>;

    /// Class probabilities for each of `rows` of `x`, row-major
    /// (`rows.len() × n_classes`). Bit-identical to calling
    /// [`Classifier::predict_proba`] on each row, but batched: all rows
    /// share one model, so learners score several rows (or heads) per pass.
    fn proba_rows(&self, x: &Matrix, rows: &[usize]) -> Vec<f64>;

    /// Number of classes.
    fn n_classes(&self) -> u32;

    /// Whether the model has been fit at least once with a non-empty
    /// training set.
    fn is_fit(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_constructors() {
        let e = Example::new(3, 1);
        assert_eq!(e.weight, 1.0);
        let w = Example::weighted(3, 1, 0.25);
        assert_eq!(w.weight, 0.25);
    }

    #[test]
    fn sgd_defaults_sane() {
        let c = SgdConfig::default();
        assert!(c.learning_rate > 0.0 && c.epochs > 0 && c.batch_size > 0);
        assert!((0.0..=1.0).contains(&c.lr_decay));
    }
}
