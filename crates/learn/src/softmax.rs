//! Multinomial (softmax) logistic regression for multi-class tasks —
//! the 10-class MNIST-like digits dataset in particular.

use crate::linalg::{dot, dot4, softmax_into, Matrix};
use crate::model::{Classifier, Example, SgdConfig};
use clamshell_sim::rng::Rng;
use serde::{Deserialize, Serialize};

/// Multinomial logistic regression with `n_classes` linear heads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxRegression {
    config: SgdConfig,
    n_classes: u32,
    /// Row-major `n_classes × d` weight matrix.
    weights: Vec<f64>,
    bias: Vec<f64>,
    dims: usize,
    fitted: bool,
}

impl SoftmaxRegression {
    /// New untrained model for `n_classes` classes.
    pub fn new(n_classes: u32, config: SgdConfig) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        SoftmaxRegression {
            config,
            n_classes,
            weights: Vec::new(),
            bias: Vec::new(),
            dims: 0,
            fitted: false,
        }
    }

    /// Row-major `n_classes × d` weights (empty until fit).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-class bias terms (empty until fit).
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    #[inline]
    fn class_weights(&self, c: usize) -> &[f64] {
        &self.weights[c * self.dims..(c + 1) * self.dims]
    }

    /// The one forward pass: every head scores the same row, so heads go
    /// through [`dot4`] four at a time.
    fn logits_into(&self, features: &[f64], out: &mut [f64]) {
        let k = self.n_classes as usize;
        let (quads, tail) = out[..k].as_chunks_mut::<4>();
        for (q, o) in quads.iter_mut().enumerate() {
            let c = 4 * q;
            let heads = [c, c + 1, c + 2, c + 3].map(|h| self.class_weights(h));
            let z = dot4(features, heads);
            for (l, o) in o.iter_mut().enumerate() {
                *o = z[l] + self.bias[c + l];
            }
        }
        let c0 = k - tail.len();
        for (c, o) in (c0..k).zip(tail) {
            *o = dot(self.class_weights(c), features) + self.bias[c];
        }
    }
}

impl Classifier for SoftmaxRegression {
    fn fit(&mut self, x: &Matrix, examples: &[Example]) {
        if examples.is_empty() {
            return;
        }
        let d = x.cols();
        let k = self.n_classes as usize;
        self.dims = d;
        self.weights = vec![0.0; k * d];
        self.bias = vec![0.0; k];

        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = Rng::new(self.config.seed);
        let mut lr = self.config.learning_rate;
        let mean_w: f64 = examples.iter().map(|e| e.weight).sum::<f64>() / examples.len() as f64;
        let wnorm = if mean_w > 0.0 { 1.0 / mean_w } else { 1.0 };

        // Scratch buffers, sized once for the largest mini-batch.
        let cap = self.config.batch_size.min(examples.len());
        let mut logits = vec![0.0; k];
        let mut errs = vec![0.0; cap * k];
        let mut terms: Vec<(f64, usize)> = Vec::with_capacity(cap);
        let mut gw = vec![0.0; k * d];
        let mut gb = vec![0.0; k];

        for _epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.config.batch_size) {
                // Forward: the whole mini-batch sees the same weights.
                // `errs` holds p − onehot(y), scaled by the example weight.
                let errs = &mut errs[..chunk.len() * k];
                for (&i, err) in chunk.iter().zip(errs.chunks_exact_mut(k)) {
                    let ex = examples[i];
                    debug_assert!(
                        ex.label < self.n_classes,
                        "label {} out of range {}",
                        ex.label,
                        self.n_classes
                    );
                    self.logits_into(x.row(ex.row), &mut logits);
                    softmax_into(&logits, err);
                    let w = ex.weight * wnorm;
                    for (c, e) in err.iter_mut().enumerate() {
                        *e = (*e - (c as u32 == ex.label) as u8 as f64) * w;
                    }
                }
                // Backward: grad = (p − onehot(y)) ⊗ row, per head in
                // example order. A zero error adds nothing, not even a
                // signed zero, so it never becomes a term.
                gw.fill(0.0);
                for c in 0..k {
                    terms.clear();
                    for (&i, err) in chunk.iter().zip(errs.chunks_exact(k)) {
                        if err[c] != 0.0 {
                            terms.push((err[c], examples[i].row));
                        }
                    }
                    x.axpy_rows(&terms, &mut gw[c * d..(c + 1) * d]);
                    gb[c] = terms.iter().fold(0.0, |s, t| s + t.0);
                }
                let inv = 1.0 / chunk.len() as f64;
                let shrink = 1.0 - lr * self.config.l2;
                for (w, g) in self.weights.iter_mut().zip(&gw) {
                    *w = *w * shrink - lr * g * inv;
                }
                for (b, g) in self.bias.iter_mut().zip(&gb) {
                    *b -= lr * g * inv;
                }
            }
            lr *= self.config.lr_decay;
        }
        self.fitted = true;
    }

    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        let k = self.n_classes as usize;
        if !self.fitted {
            return vec![1.0 / k as f64; k];
        }
        let mut logits = vec![0.0; k];
        self.logits_into(features, &mut logits);
        let mut probs = vec![0.0; k];
        softmax_into(&logits, &mut probs);
        probs
    }

    fn proba_rows(&self, x: &Matrix, rows: &[usize]) -> Vec<f64> {
        let k = self.n_classes as usize;
        if !self.fitted {
            return vec![1.0 / k as f64; k * rows.len()];
        }
        let mut logits = vec![0.0; k];
        let mut probs = vec![0.0; k * rows.len()];
        for (&r, p) in rows.iter().zip(probs.chunks_exact_mut(k)) {
            self.logits_into(x.row(r), &mut logits);
            softmax_into(&logits, p);
        }
        probs
    }

    fn n_classes(&self) -> u32 {
        self.n_classes
    }

    fn is_fit(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;
    use crate::linalg::argmax;

    /// Four well-separated Gaussian blobs in 2D.
    fn blobs4(n_per: usize, seed: u64) -> (Matrix, Vec<Example>) {
        let centers = [(-3.0, -3.0), (3.0, -3.0), (-3.0, 3.0), (3.0, 3.0)];
        let mut rng = Rng::new(seed);
        let mut m = Matrix::zeros(0, 0);
        let mut ex = Vec::new();
        for i in 0..n_per * 4 {
            let label = (i % 4) as u32;
            let (cx, cy) = centers[label as usize];
            m.push_row(&[cx + rng.next_gaussian() * 0.6, cy + rng.next_gaussian() * 0.6]);
            ex.push(Example::new(i, label));
        }
        (m, ex)
    }

    #[test]
    fn learns_four_blobs() {
        let (x, ex) = blobs4(80, 1);
        let mut sm = SoftmaxRegression::new(4, SgdConfig::default());
        sm.fit(&x, &ex);
        let rows: Vec<usize> = ex.iter().map(|e| e.row).collect();
        let labels: Vec<u32> = ex.iter().map(|e| e.label).collect();
        let acc = accuracy(&sm, &x, &rows, &labels);
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn probabilities_normalized() {
        let (x, ex) = blobs4(30, 2);
        let mut sm = SoftmaxRegression::new(4, SgdConfig::default());
        sm.fit(&x, &ex);
        for i in 0..8 {
            let p = sm.predict_proba(x.row(i));
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn unfit_model_is_uniform() {
        let sm = SoftmaxRegression::new(5, SgdConfig::default());
        let p = sm.predict_proba(&[0.0, 0.0]);
        assert!(p.iter().all(|&v| (v - 0.2).abs() < 1e-12));
    }

    #[test]
    fn binary_softmax_agrees_with_logistic_direction() {
        // Softmax with k=2 should separate the same blobs as the binary LR.
        let mut rng = Rng::new(3);
        let mut m = Matrix::zeros(0, 0);
        let mut ex = Vec::new();
        for i in 0..200 {
            let label = (i % 2) as u32;
            let cx = if label == 0 { -2.0 } else { 2.0 };
            m.push_row(&[cx + rng.next_gaussian() * 0.5]);
            ex.push(Example::new(i, label));
        }
        let mut sm = SoftmaxRegression::new(2, SgdConfig::default());
        sm.fit(&m, &ex);
        assert_eq!(argmax(&sm.predict_proba(&[-2.0])), 0);
        assert_eq!(argmax(&sm.predict_proba(&[2.0])), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_single_class() {
        let _ = SoftmaxRegression::new(1, SgdConfig::default());
    }
}
