//! # clamshell-learn
//!
//! The machine-learning substrate for the CLAMShell reproduction.
//!
//! The paper trains models on crowd labels to impute the rest of a dataset
//! (§5): *passive* learning trains on uniformly sampled points, *active*
//! learning picks points by uncertainty sampling, and CLAMShell's *hybrid*
//! learner splits the worker pool between both. The original implementation
//! sits on scikit-learn (§6.1); Rust has no equivalent on the offline
//! allow-list, so this crate implements everything needed from scratch:
//!
//! * [`linalg`] — minimal dense matrix/vector kernels, including four-wide
//!   `dot4`/`axpy4` that return exactly the bits of the scalar ones.
//! * [`model`] — the [`model::Classifier`] trait (probabilistic,
//!   weight-aware, with batched scoring through
//!   [`model::Classifier::proba_rows`]) shared by all learners and the
//!   selection strategies.
//! * [`logistic`] — binary logistic regression via mini-batch SGD + L2.
//! * [`softmax`] — multinomial logistic regression (the 10-class digits
//!   task).
//! * [`sampling`] — uncertainty measures and the candidate-subsample
//!   point-selection of §5.3 ("rather than consider all unlabeled points …
//!   we consider only a uniform random sample").
//! * [`eval`] — accuracy, train/test splits, learning curves.
//! * [`datasets`] — generators standing in for the paper's data: Guyon-style
//!   `make_classification` (the same algorithm scikit-learn adapts, used
//!   for Figure 15's hardness sweep), an MNIST-like `digits` task, and a
//!   CIFAR-like `objects` (birds vs airplanes) task.

#![warn(missing_docs)]

pub mod datasets;
pub mod eval;
pub mod linalg;
pub mod logistic;
pub mod model;
pub mod sampling;
pub mod softmax;

pub use datasets::Dataset;
pub use linalg::Matrix;
pub use logistic::LogisticRegression;
pub use model::{new_classifier, Classifier, Example, SgdConfig};
pub use softmax::SoftmaxRegression;
