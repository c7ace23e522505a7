//! Point selection: uncertainty sampling and random sampling.
//!
//! §5.3 of the paper: "rather than consider all unlabeled points for
//! selection in the next batch, we consider only a uniform random sample
//! of the points… the point selection time is linear in the sample size,
//! not the size of the entire unlabeled dataset."
//! [`select_uncertain`] implements exactly that — score a bounded
//! candidate subsample with the current model and take the top-`k`.

use crate::linalg::Matrix;
use crate::model::Classifier;
use clamshell_sim::rng::Rng;

/// How a model's predictive distribution is turned into an uncertainty
/// score (higher = more uncertain = more valuable to label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uncertainty {
    /// `1 − max_c p(c)` — the paper's "uncertainty sampling" default.
    LeastConfidence,
    /// Negative margin between the two most probable classes.
    Margin,
    /// Shannon entropy of the predictive distribution.
    Entropy,
}

impl Uncertainty {
    /// Score a probability vector.
    pub fn score(self, probs: &[f64]) -> f64 {
        match self {
            Uncertainty::LeastConfidence => {
                1.0 - probs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
            Uncertainty::Margin => {
                let (mut top, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for &p in probs {
                    if p > top {
                        second = top;
                        top = p;
                    } else if p > second {
                        second = p;
                    }
                }
                -(top - second)
            }
            Uncertainty::Entropy => probs.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum(),
        }
    }
}

/// Select up to `k` points for active labeling: draw a uniform candidate
/// subsample of size `sample_size` from `unlabeled`, score each with the
/// model, and return the top-`k` most uncertain (most uncertain first).
///
/// If the model is not yet fit, falls back to a uniform random pick — at
/// bootstrap there is no signal to exploit, which is also what the
/// paper's implementation does for its first batch.
pub fn select_uncertain<C: Classifier + ?Sized>(
    model: &C,
    x: &Matrix,
    unlabeled: &[usize],
    k: usize,
    sample_size: usize,
    measure: Uncertainty,
    rng: &mut Rng,
) -> Vec<usize> {
    let k = k.min(unlabeled.len());
    if k == 0 {
        return Vec::new();
    }
    if !model.is_fit() {
        return select_random(unlabeled, k, rng);
    }
    // Uniform candidate subsample (§5.3).
    let cand: Vec<usize> = if unlabeled.len() <= sample_size {
        unlabeled.to_vec()
    } else {
        rng.sample_indices(unlabeled.len(), sample_size).into_iter().map(|i| unlabeled[i]).collect()
    };
    let n_classes = model.n_classes() as usize;
    let probs = model.proba_rows(x, &cand);
    let mut scored: Vec<(f64, usize)> =
        probs.chunks_exact(n_classes).zip(cand).map(|(p, row)| (measure.score(p), row)).collect();
    // Highest uncertainty first; tie-break on row id for determinism.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, row)| row).collect()
}

/// Uniformly sample `k` distinct points from `unlabeled` (passive
/// learning's selection).
pub fn select_random(unlabeled: &[usize], k: usize, rng: &mut Rng) -> Vec<usize> {
    rng.sample_indices(unlabeled.len(), k).into_iter().map(|i| unlabeled[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::LogisticRegression;
    use crate::model::{Example, SgdConfig};

    #[test]
    fn least_confidence_scores() {
        let u = Uncertainty::LeastConfidence;
        assert!((u.score(&[0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert!((u.score(&[0.9, 0.1]) - 0.1).abs() < 1e-12);
        assert!(u.score(&[0.5, 0.5]) > u.score(&[0.8, 0.2]));
    }

    #[test]
    fn margin_prefers_close_races() {
        let u = Uncertainty::Margin;
        assert!(u.score(&[0.45, 0.55]) > u.score(&[0.1, 0.9]));
        // Works for multiclass too: top-two margin.
        assert!(u.score(&[0.4, 0.39, 0.21]) > u.score(&[0.6, 0.3, 0.1]));
    }

    #[test]
    fn entropy_maximal_at_uniform() {
        let u = Uncertainty::Entropy;
        assert!(u.score(&[0.25; 4]) > u.score(&[0.7, 0.1, 0.1, 0.1]));
        assert_eq!(u.score(&[1.0, 0.0]), 0.0);
    }

    fn fitted_model() -> (LogisticRegression, Matrix) {
        // 1-D data: class 0 at -2, class 1 at +2; boundary at 0.
        let mut x = Matrix::zeros(0, 0);
        let mut ex = Vec::new();
        for i in 0..40 {
            let label = (i % 2) as u32;
            x.push_row(&[if label == 0 { -2.0 } else { 2.0 }]);
            ex.push(Example::new(i, label));
        }
        // Unlabeled points at varying distance from the boundary.
        for v in [-3.0, -0.05, 0.1, 2.5, 0.02, -1.5] {
            x.push_row(&[v]);
        }
        let mut m = LogisticRegression::new(SgdConfig::default());
        m.fit(&x, &ex);
        (m, x)
    }

    #[test]
    fn uncertain_selection_picks_boundary_points() {
        let (m, x) = fitted_model();
        let unlabeled = vec![40, 41, 42, 43, 44, 45];
        let mut rng = Rng::new(1);
        let picked =
            select_uncertain(&m, &x, &unlabeled, 3, 100, Uncertainty::LeastConfidence, &mut rng);
        assert_eq!(picked.len(), 3);
        // The three nearest-to-boundary rows are 41 (-0.05), 44 (0.02),
        // 42 (0.1).
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![41, 42, 44], "picked={picked:?}");
    }

    #[test]
    fn unfit_model_falls_back_to_random() {
        let m = LogisticRegression::new(SgdConfig::default());
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let unlabeled = vec![0, 1, 2];
        let mut rng = Rng::new(2);
        let picked =
            select_uncertain(&m, &x, &unlabeled, 2, 10, Uncertainty::LeastConfidence, &mut rng);
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|p| unlabeled.contains(p)));
    }

    #[test]
    fn selection_respects_k_and_pool() {
        let (m, x) = fitted_model();
        let mut rng = Rng::new(3);
        assert!(select_uncertain(&m, &x, &[], 5, 10, Uncertainty::Margin, &mut rng).is_empty());
        let picked = select_uncertain(&m, &x, &[40, 41], 5, 10, Uncertainty::Margin, &mut rng);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn random_selection_distinct() {
        let mut rng = Rng::new(4);
        let unlabeled: Vec<usize> = (100..200).collect();
        let s = select_random(&unlabeled, 20, &mut rng);
        assert_eq!(s.len(), 20);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 20);
        assert!(s.iter().all(|&i| (100..200).contains(&i)));
    }

    #[test]
    fn candidate_subsampling_bounds_work() {
        // With sample_size=2 only 2 candidates are scored, so the result
        // is a subset of the unlabeled pool of size ≤ 2.
        let (m, x) = fitted_model();
        let unlabeled = vec![40, 41, 42, 43, 44, 45];
        let mut rng = Rng::new(5);
        let picked =
            select_uncertain(&m, &x, &unlabeled, 6, 2, Uncertainty::LeastConfidence, &mut rng);
        assert_eq!(picked.len(), 2);
    }
}
