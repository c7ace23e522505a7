//! Dataset container and generators.
//!
//! Three generators stand in for the paper's data sources (see DESIGN.md
//! §1 for the substitution rationale):
//!
//! * [`generate`] — Guyon-style `make_classification` (what the paper uses
//!   for Figure 15: "these datasets are generated with the scikit-learn
//!   data generator, which builds classification problems following an
//!   adaptation of the algorithm from [Guyon 2003]").
//! * [`digits`] — MNIST-like 10-class handwritten-digit images
//!   (28×28 = 784 raw-pixel features, like the paper's MNIST usage).
//! * [`objects`] — CIFAR-like "Birds vs Airplanes" binary task
//!   (32×32×3 = 3072 raw-pixel features, like the paper's CIFAR-10 subset).

pub mod digits;
pub mod generate;
pub mod objects;

use crate::eval::train_test_split;
use crate::linalg::Matrix;

/// A labeled classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, one row per item.
    pub features: Matrix,
    /// Ground-truth class per item, in `0..n_classes`.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub n_classes: u32,
    /// Human-readable name for reports.
    pub name: String,
}

impl Dataset {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.features.cols()
    }

    /// Deterministic train/test index split.
    pub fn split(&self, test_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        train_test_split(self.len(), test_frac, seed)
    }

    /// Sanity-check invariants (used by tests and debug assertions).
    pub fn validate(&self) {
        assert_eq!(self.features.rows(), self.labels.len(), "rows/labels mismatch");
        assert!(self.n_classes >= 2, "need >= 2 classes");
        assert!(self.labels.iter().all(|&l| l < self.n_classes), "label out of range");
        assert!(self.features.as_slice().iter().all(|v| v.is_finite()), "non-finite feature");
    }

    /// Per-class item counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes as usize];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset {
            features: Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]]),
            labels: vec![0, 1, 0],
            n_classes: 2,
            name: "tiny".into(),
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        tiny().validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_out_of_range_label() {
        let mut d = tiny();
        d.labels[0] = 7;
        d.validate();
    }

    #[test]
    fn class_counts_sum_to_len() {
        let d = tiny();
        let counts = d.class_counts();
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(counts.iter().sum::<usize>(), d.len());
    }

    #[test]
    fn split_partitions_items() {
        let d = tiny();
        let (train, test) = d.split(0.34, 1);
        assert_eq!(train.len() + test.len(), 3);
    }
}
