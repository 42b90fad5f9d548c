//! From-scratch machine learning for the phishing classifier (paper §5).
//!
//! The paper trains three models — Naive Bayes, KNN, and Random Forest —
//! on sparse keyword-frequency vectors and evaluates them with 10-fold
//! cross-validation, reporting FP rate, FN rate, AUC and accuracy
//! (Table 7, Figure 10). This crate implements that whole stack:
//!
//! * [`dataset`] — labeled sparse datasets with stratified k-fold splits,
//! * [`nb`] — Gaussian and Multinomial Naive Bayes,
//! * [`knn`] — k-nearest-neighbors with distance-weighted voting,
//! * [`forest`] — CART decision trees with gini impurity, bagging and
//!   feature subsampling (a seeded random forest),
//! * [`metrics`] — confusion matrices, FPR/FNR/accuracy, ROC curves, AUC.
//!
//! Every model implements [`Classifier`]: fit on a dataset, then `score`
//! unseen vectors with a probability-like value in [0, 1] (threshold at
//! 0.5 for the hard label).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod forest;
pub mod knn;
pub mod metrics;
pub mod nb;

pub use dataset::Dataset;
pub use forest::{RandomForest, RandomForestConfig};
pub use knn::Knn;
pub use metrics::{ConfusionMatrix, Metrics, RocCurve};
pub use nb::{GaussianNb, MultinomialNb};

use squatphi_nlp::SparseVec;

/// A binary classifier over sparse vectors. Labels: `true` = positive
/// (phishing), `false` = negative (benign).
pub trait Classifier {
    /// Fits the model to a dataset.
    fn fit(&mut self, data: &Dataset);

    /// Scores one sample: higher = more likely positive, in [0, 1].
    fn score(&self, x: &SparseVec) -> f64;

    /// Hard prediction at the 0.5 threshold.
    fn predict(&self, x: &SparseVec) -> bool {
        self.score(x) >= 0.5
    }

    /// Human-readable model name (for result tables).
    fn name(&self) -> &'static str;
}

/// Runs stratified k-fold cross-validation, returning the pooled scores
/// and labels (for ROC) of every held-out sample, fold by fold.
pub fn cross_validate<C: Classifier>(
    model_factory: impl Fn() -> C,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Vec<(f64, bool)> {
    let folds = data.stratified_folds(k, seed);
    (0..k)
        .flat_map(|fold| cross_validate_fold(model_factory(), data, &folds, fold))
        .collect()
}

/// One fold of [`cross_validate`]: fits a fresh `model` on every sample
/// whose fold id (from [`Dataset::stratified_folds`]) is not `fold`, then
/// scores the held-out samples in dataset order. Folds are independent,
/// so callers may run them concurrently and concatenate in fold order.
pub fn cross_validate_fold<C: Classifier>(
    mut model: C,
    data: &Dataset,
    folds: &[usize],
    fold: usize,
) -> Vec<(f64, bool)> {
    let (train, test) = data.split_fold(folds, fold);
    model.fit(&train);
    test.iter().map(|(x, y)| (model.score(x), y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        // Positives heavy on dim 0, negatives on dim 1, 40 samples.
        let mut d = Dataset::new(4);
        for i in 0..20 {
            let mut v = SparseVec::new();
            v.add(0, 2.0 + (i % 3) as f64);
            v.add(2, 1.0);
            d.push(v, true);
            let mut w = SparseVec::new();
            w.add(1, 2.0 + (i % 4) as f64);
            d.push(w, false);
        }
        d
    }

    #[test]
    fn all_models_learn_the_toy_problem() {
        let data = toy_dataset();
        let mut models: Vec<Box<dyn Classifier>> = vec![
            Box::new(GaussianNb::new()),
            Box::new(MultinomialNb::new(1.0)),
            Box::new(Knn::new(3)),
            Box::new(RandomForest::new(RandomForestConfig {
                trees: 10,
                ..Default::default()
            })),
        ];
        for m in &mut models {
            m.fit(&data);
            let mut pos = SparseVec::new();
            pos.add(0, 3.0);
            let mut neg = SparseVec::new();
            neg.add(1, 3.0);
            assert!(m.predict(&pos), "{} failed on positive", m.name());
            assert!(!m.predict(&neg), "{} failed on negative", m.name());
        }
    }

    #[test]
    fn cross_validation_pools_every_sample() {
        let data = toy_dataset();
        let pooled = cross_validate(|| Knn::new(3), &data, 5, 1);
        assert_eq!(pooled.len(), data.len());
        let m = Metrics::from_scores(&pooled, 0.5);
        assert!(m.accuracy > 0.9, "cv accuracy {}", m.accuracy);
    }
}
