//! Binary logistic regression via weighted mini-batch SGD.
//!
//! Used for the two-class tasks (the CIFAR-like birds/airplanes dataset
//! and generated binary problems). Matches the role scikit-learn's
//! `LogisticRegression`/`SGDClassifier` plays in the paper's stack.

use crate::linalg::{dot, sigmoid, Matrix};
use crate::model::{Classifier, Example, SgdConfig};
use clamshell_sim::rng::Rng;
use serde::{Deserialize, Serialize};

/// Binary logistic regression model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    config: SgdConfig,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LogisticRegression {
    /// New untrained model with the given SGD hyper-parameters.
    pub fn new(config: SgdConfig) -> Self {
        LogisticRegression { config, weights: Vec::new(), bias: 0.0, fitted: false }
    }

    /// Model weights (empty until fit).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Probability of class 1 for a feature row.
    pub fn proba_positive(&self, features: &[f64]) -> f64 {
        if !self.fitted || self.weights.is_empty() {
            return 0.5;
        }
        sigmoid(dot(&self.weights, features) + self.bias)
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, examples: &[Example]) {
        if examples.is_empty() {
            return;
        }
        let d = x.cols();
        self.weights = vec![0.0; d];
        self.bias = 0.0;

        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = Rng::new(self.config.seed);
        let mut lr = self.config.learning_rate;
        // Normalize weights so the effective learning rate is insensitive
        // to the absolute weight scale.
        let mean_w: f64 = examples.iter().map(|e| e.weight).sum::<f64>() / examples.len() as f64;
        let wnorm = if mean_w > 0.0 { 1.0 / mean_w } else { 1.0 };

        // Scratch buffers, sized once for the largest mini-batch.
        let cap = self.config.batch_size.min(examples.len());
        let mut rows: Vec<usize> = Vec::with_capacity(cap);
        let mut z = vec![0.0; cap];
        let mut terms: Vec<(f64, usize)> = Vec::with_capacity(cap);
        let mut gw = vec![0.0; d];

        for _epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.config.batch_size) {
                // Forward: the whole mini-batch sees the same weights.
                rows.clear();
                rows.extend(chunk.iter().map(|&i| examples[i].row));
                let z = &mut z[..chunk.len()];
                x.dot_rows(&self.weights, &rows, z);
                terms.clear();
                for (&i, &zi) in chunk.iter().zip(z.iter()) {
                    let ex = examples[i];
                    debug_assert!(ex.label < 2, "binary learner got label {}", ex.label);
                    let p = sigmoid(zi + self.bias);
                    terms.push(((p - ex.label as f64) * ex.weight * wnorm, ex.row));
                }
                // Backward: accumulate the mini-batch gradient in example order.
                gw.fill(0.0);
                x.axpy_rows(&terms, &mut gw);
                let gb = terms.iter().fold(0.0, |s, t| s + t.0);
                let inv = 1.0 / chunk.len() as f64;
                // L2 on weights only (standard practice: bias unregularized).
                let shrink = 1.0 - lr * self.config.l2;
                for (w, g) in self.weights.iter_mut().zip(&gw) {
                    *w = *w * shrink - lr * g * inv;
                }
                self.bias -= lr * gb * inv;
            }
            lr *= self.config.lr_decay;
        }
        self.fitted = true;
    }

    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        let p1 = self.proba_positive(features);
        vec![1.0 - p1, p1]
    }

    fn proba_rows(&self, x: &Matrix, rows: &[usize]) -> Vec<f64> {
        if !self.fitted || self.weights.is_empty() {
            return vec![0.5; 2 * rows.len()];
        }
        let mut z = vec![0.0; rows.len()];
        x.dot_rows(&self.weights, rows, &mut z);
        z.into_iter()
            .flat_map(|zi| {
                let p1 = sigmoid(zi + self.bias);
                [1.0 - p1, p1]
            })
            .collect()
    }

    fn n_classes(&self) -> u32 {
        2
    }

    fn is_fit(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;

    /// Linearly separable blobs in 2D.
    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<Example>) {
        let mut rng = Rng::new(seed);
        let mut m = Matrix::zeros(0, 0);
        let mut ex = Vec::new();
        for i in 0..n_per * 2 {
            let label = (i % 2) as u32;
            let cx = if label == 0 { -2.0 } else { 2.0 };
            m.push_row(&[cx + rng.next_gaussian() * 0.5, rng.next_gaussian() * 0.5]);
            ex.push(Example::new(i, label));
        }
        (m, ex)
    }

    #[test]
    fn learns_separable_data() {
        let (x, ex) = blobs(100, 1);
        let mut lr = LogisticRegression::new(SgdConfig::default());
        lr.fit(&x, &ex);
        let labels: Vec<u32> = ex.iter().map(|e| e.label).collect();
        let rows: Vec<usize> = ex.iter().map(|e| e.row).collect();
        let acc = accuracy(&lr, &x, &rows, &labels);
        assert!(acc > 0.97, "acc={acc}");
    }

    #[test]
    fn unfit_model_is_uninformative() {
        let lr = LogisticRegression::new(SgdConfig::default());
        assert!(!lr.is_fit());
        assert_eq!(lr.predict_proba(&[1.0, 2.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, ex) = blobs(50, 2);
        let mut lr = LogisticRegression::new(SgdConfig::default());
        lr.fit(&x, &ex);
        for i in 0..10 {
            let p = lr.predict_proba(x.row(i));
            assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_shift_decision_boundary() {
        // Downweighting one class's examples to ~0 should push predictions
        // toward the other class near the boundary.
        let (x, mut ex) = blobs(100, 3);
        for e in ex.iter_mut() {
            if e.label == 1 {
                e.weight = 0.01;
            }
        }
        let mut lr = LogisticRegression::new(SgdConfig::default());
        lr.fit(&x, &ex);
        // Point at the midpoint should lean class 0.
        assert!(lr.proba_positive(&[0.0, 0.0]) < 0.5);
    }

    #[test]
    fn deterministic_for_seed() {
        let (x, ex) = blobs(50, 4);
        let mut a = LogisticRegression::new(SgdConfig::default());
        let mut b = LogisticRegression::new(SgdConfig::default());
        a.fit(&x, &ex);
        b.fit(&x, &ex);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn fit_on_empty_is_noop() {
        let mut lr = LogisticRegression::new(SgdConfig::default());
        lr.fit(&Matrix::zeros(0, 0), &[]);
        assert!(!lr.is_fit());
    }
}
