//! Fit fingerprints: an FNV-1a hash of the bits of every weight and bias
//! after `fit`.
//!
//! The expected values were recorded from the scalar per-example SGD
//! loops. The batched kernels must reproduce them bit for bit, so any
//! change to summation order, lane layout or the zero-error skip shows
//! up here as a fingerprint mismatch rather than as a drifted curve.

use clamshell_learn::datasets::digits::{digits, DigitsConfig};
use clamshell_learn::datasets::objects::{objects, ObjectsConfig};
use clamshell_learn::{Classifier, Dataset, Example, LogisticRegression, SgdConfig};
use clamshell_learn::{Matrix, SoftmaxRegression};
use clamshell_obs::Fnv;

/// Rows drawn from the pool.
const POOL: usize = 120;

fn fingerprint(weights: &[f64], bias: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in weights.iter().chain(bias) {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// `n` examples over scattered rows; every third one stands in for an
/// actively selected point and carries the hybrid learner's `k/p` weight.
fn hybrid_examples(ds: &Dataset, n: usize) -> Vec<Example> {
    (0..n)
        .map(|i| {
            let row = (i * 7) % POOL;
            let label = ds.labels[row];
            if i % 3 == 1 {
                Example::weighted(row, label, 0.5)
            } else {
                Example::new(row, label)
            }
        })
        .collect()
}

/// The learning experiments' SGD settings, and a batch size that is not
/// a multiple of four.
fn configs() -> [SgdConfig; 2] {
    let base = SgdConfig { epochs: 15, seed: 3, ..Default::default() };
    [base, SgdConfig { batch_size: 10, ..base }]
}

const SIZES: [usize; 3] = [5, 33, 100];

#[test]
fn logistic_fit_fingerprints() {
    let ds = objects(&ObjectsConfig { n_samples: POOL, ..Default::default() }, 21);
    let mut got = Vec::new();
    for cfg in configs() {
        for n in SIZES {
            let mut m = LogisticRegression::new(cfg);
            m.fit(&ds.features, &hybrid_examples(&ds, n));
            got.push(format!("{:016x}", fingerprint(m.weights(), &[m.bias()])));
        }
    }
    assert_eq!(got, LOGISTIC_EXPECTED);
}

#[test]
fn softmax_fit_fingerprints() {
    let ds = digits(&DigitsConfig { n_samples: POOL, ..Default::default() }, 22);
    let mut got = Vec::new();
    for cfg in configs() {
        for n in SIZES {
            let mut m = SoftmaxRegression::new(ds.n_classes, cfg);
            m.fit(&ds.features, &hybrid_examples(&ds, n));
            got.push(format!("{:016x}", fingerprint(m.weights(), m.bias())));
        }
    }
    assert_eq!(got, SOFTMAX_EXPECTED);
}

/// Saturating softmax: huge-magnitude rows drive the probabilities to
/// exactly 0 and 1, so errors become exactly zero, and zero-weight
/// examples give zero (and negative-zero) errors from the start. Rows
/// mix `0.0` and `-0.0` features, so zero errors meet signed-zero
/// products. A zero error must add nothing to the gradient.
#[test]
fn softmax_zero_error_fingerprint() {
    let x = Matrix::from_rows(&[
        vec![400.0, -0.0, 0.0, -400.0, 1.0, -0.0],
        vec![-400.0, 0.0, -0.0, 400.0, -0.0, 2.0],
        vec![-0.0, 400.0, -400.0, 0.0, -1.0, 0.0],
        vec![0.5, -0.0, -0.25, 0.0, -0.0, -0.0],
        vec![-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
        vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]);
    let examples = [
        Example::new(0, 0),
        Example::new(1, 1),
        Example::new(2, 2),
        Example::weighted(3, 1, 0.0),
        Example::weighted(4, 2, 0.0),
        Example::new(5, 0),
        Example::weighted(0, 0, 0.5),
        Example::weighted(3, 2, 0.0),
        Example::new(1, 1),
    ];
    let cfg = SgdConfig { batch_size: 9, epochs: 6, seed: 5, ..Default::default() };
    let mut m = SoftmaxRegression::new(3, cfg);
    m.fit(&x, &examples);
    // The big rows really did saturate.
    assert!(m.predict_proba(x.row(0)).contains(&1.0));
    assert_eq!(format!("{:016x}", fingerprint(m.weights(), m.bias())), SOFTMAX_ZERO_ERROR_EXPECTED);
}

/// `proba_rows` is the batched form of `predict_proba`: same bits, row by
/// row, for any row list (empty, not a multiple of four, repeated rows).
fn assert_proba_rows_match<C: Classifier>(model: &C, x: &Matrix) {
    let k = model.n_classes() as usize;
    for len in [0, 1, 3, 4, 5, 9, 17] {
        let rows: Vec<usize> = (0..len).map(|i| (i * 11) % x.rows()).collect();
        let got = model.proba_rows(x, &rows);
        assert_eq!(got.len(), len * k);
        for (p, &r) in got.chunks_exact(k).zip(&rows) {
            let want = model.predict_proba(x.row(r));
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p), bits(&want), "row {r} of {len}");
        }
    }
}

#[test]
fn proba_rows_matches_predict_proba_bitwise() {
    let cfg = configs()[0];
    let obj = objects(&ObjectsConfig { n_samples: POOL, ..Default::default() }, 21);
    let mut lr = LogisticRegression::new(cfg);
    assert_proba_rows_match(&lr, &obj.features);
    lr.fit(&obj.features, &hybrid_examples(&obj, 33));
    assert_proba_rows_match(&lr, &obj.features);

    let dig = digits(&DigitsConfig { n_samples: POOL, ..Default::default() }, 22);
    let mut sm = SoftmaxRegression::new(dig.n_classes, cfg);
    assert_proba_rows_match(&sm, &dig.features);
    sm.fit(&dig.features, &hybrid_examples(&dig, 33));
    assert_proba_rows_match(&sm, &dig.features);
}

const LOGISTIC_EXPECTED: [&str; 6] = [
    "3a08ad8456e6ff46",
    "af0c1a3d05d82cd9",
    "0b2f247f2d5b2ce6",
    "3a08ad8456e6ff46",
    "8f14979fa387abaf",
    "ee0dbc9e68e5dd8b",
];
const SOFTMAX_EXPECTED: [&str; 6] = [
    "434a349f6458a71c",
    "b521bffbd83c83b7",
    "292710f10312e5ec",
    "434a349f6458a71c",
    "e52a05d004bd843b",
    "80b0d5978a0264e7",
];
const SOFTMAX_ZERO_ERROR_EXPECTED: &str = "3e867e3f57e33e7e";
