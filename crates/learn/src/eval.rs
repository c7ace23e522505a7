//! Model evaluation: accuracy, splits, and learning curves.

use crate::linalg::{argmax, Matrix};
use crate::model::Classifier;
use clamshell_sim::rng::Rng;

/// Fraction of `rows` whose prediction matches `labels`.
pub fn accuracy<C: Classifier + ?Sized>(
    model: &C,
    x: &Matrix,
    rows: &[usize],
    labels: &[u32],
) -> f64 {
    assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
    if rows.is_empty() {
        return 0.0;
    }
    let k = model.n_classes() as usize;
    let probs = model.proba_rows(x, rows);
    let correct = probs.chunks_exact(k).zip(labels).filter(|(p, &y)| argmax(p) as u32 == y).count();
    correct as f64 / rows.len() as f64
}

/// Deterministic shuffled split of `n` indices into train/test.
pub fn train_test_split(n: usize, test_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!((0.0..1.0).contains(&test_frac), "test_frac in [0,1)");
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut idx);
    let n_test = ((n as f64) * test_frac).round() as usize;
    let test = idx.split_off(n - n_test);
    (idx, test)
}

/// One observation on a learning curve: after `labels_acquired` labels
/// (at `time_secs` of simulated time, where applicable), the model scored
/// `test_accuracy` on a held-out set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Simulated seconds since the run began (0 for label-indexed curves).
    pub time_secs: f64,
    /// Number of crowd labels acquired so far.
    pub labels_acquired: usize,
    /// Held-out accuracy of the model trained on those labels.
    pub test_accuracy: f64,
}

/// A full learning curve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LearningCurve {
    /// Curve observations, in acquisition order.
    pub points: Vec<CurvePoint>,
}

impl LearningCurve {
    /// Empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation.
    pub fn push(&mut self, time_secs: f64, labels_acquired: usize, test_accuracy: f64) {
        self.points.push(CurvePoint { time_secs, labels_acquired, test_accuracy });
    }

    /// Final accuracy (0 if empty).
    pub fn final_accuracy(&self) -> f64 {
        self.points.last().map(|p| p.test_accuracy).unwrap_or(0.0)
    }

    /// First simulated time at which accuracy reached `threshold`
    /// (Figure 17's metric), or `None` if never reached.
    pub fn time_to_accuracy(&self, threshold: f64) -> Option<f64> {
        self.points.iter().find(|p| p.test_accuracy >= threshold).map(|p| p.time_secs)
    }

    /// First label count at which accuracy reached `threshold`.
    pub fn labels_to_accuracy(&self, threshold: f64) -> Option<usize> {
        self.points.iter().find(|p| p.test_accuracy >= threshold).map(|p| p.labels_acquired)
    }

    /// Area under the (labels, accuracy) curve, normalized by the label
    /// span — a scalar "how fast did it learn" score used to compare
    /// AL/PL/HL runs.
    pub fn auc_by_labels(&self) -> f64 {
        if self.points.len() < 2 {
            return self.final_accuracy();
        }
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let dx = (w[1].labels_acquired - w[0].labels_acquired) as f64;
            area += dx * (w[0].test_accuracy + w[1].test_accuracy) / 2.0;
        }
        let span =
            (self.points.last().unwrap().labels_acquired - self.points[0].labels_acquired) as f64;
        if span > 0.0 {
            area / span
        } else {
            self.final_accuracy()
        }
    }

    /// Accuracy at (or interpolated just before) a given simulated time.
    pub fn accuracy_at_time(&self, time_secs: f64) -> f64 {
        let mut acc = 0.0;
        for p in &self.points {
            if p.time_secs <= time_secs {
                acc = p.test_accuracy;
            } else {
                break;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::LogisticRegression;
    use crate::model::{Example, SgdConfig};

    #[test]
    fn split_is_disjoint_and_complete() {
        let (train, test) = train_test_split(100, 0.3, 7);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_deterministic() {
        assert_eq!(train_test_split(50, 0.2, 3), train_test_split(50, 0.2, 3));
        assert_ne!(train_test_split(50, 0.2, 3).1, train_test_split(50, 0.2, 4).1);
    }

    #[test]
    fn accuracy_of_perfect_and_empty() {
        let mut x = Matrix::zeros(0, 0);
        x.push_row(&[-5.0]);
        x.push_row(&[5.0]);
        let ex = vec![Example::new(0, 0), Example::new(1, 1)];
        let mut lr = LogisticRegression::new(SgdConfig::default());
        lr.fit(&x, &ex);
        assert_eq!(accuracy(&lr, &x, &[0, 1], &[0, 1]), 1.0);
        assert_eq!(accuracy(&lr, &x, &[], &[]), 0.0);
    }

    #[test]
    fn curve_thresholds_and_auc() {
        let mut c = LearningCurve::new();
        c.push(0.0, 0, 0.5);
        c.push(10.0, 50, 0.7);
        c.push(20.0, 100, 0.9);
        assert_eq!(c.time_to_accuracy(0.7), Some(10.0));
        assert_eq!(c.labels_to_accuracy(0.9), Some(100));
        assert_eq!(c.time_to_accuracy(0.95), None);
        assert_eq!(c.final_accuracy(), 0.9);
        // Trapezoid: (50*(0.5+0.7)/2 + 50*(0.7+0.9)/2) / 100 = 0.7
        assert!((c.auc_by_labels() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn accuracy_at_time_steps() {
        let mut c = LearningCurve::new();
        c.push(5.0, 10, 0.6);
        c.push(15.0, 20, 0.8);
        assert_eq!(c.accuracy_at_time(0.0), 0.0);
        assert_eq!(c.accuracy_at_time(5.0), 0.6);
        assert_eq!(c.accuracy_at_time(14.9), 0.6);
        assert_eq!(c.accuracy_at_time(100.0), 0.8);
    }
}
