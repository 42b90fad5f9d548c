//! Ground-truth assembly and classifier evaluation (paper §5.3).

use crate::features::FeatureExtractor;
use squatphi_ml::{
    cross_validate_fold, Classifier, Dataset, GaussianNb, Knn, Metrics, RandomForest,
    RandomForestConfig, RocCurve,
};
use squatphi_telemetry::par_map;

/// One evaluated model (a Table 7 row).
#[derive(Debug, Clone)]
pub struct ModelEval {
    /// Model name.
    pub name: &'static str,
    /// FP / FN / AUC / ACC at the 0.5 threshold.
    pub metrics: Metrics,
    /// Full ROC curve (Figure 10 series).
    pub roc: RocCurve,
}

/// Evaluation report across all three models.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// NB / KNN / RF rows.
    pub models: Vec<ModelEval>,
    /// Training-set shape: (positives, negatives).
    pub train_shape: (usize, usize),
}

impl EvalReport {
    /// The best model by AUC.
    pub fn best(&self) -> &ModelEval {
        self.models
            .iter()
            // total_cmp sorts a NaN AUC (degenerate eval set) last
            // instead of panicking mid-comparison.
            .max_by(|a, b| a.metrics.auc.total_cmp(&b.metrics.auc))
            .expect("EvalReport is only built with the fixed NB/KNN/RF model set")
    }
}

/// The random-forest hyperparameters used throughout the reproduction.
pub fn forest_config(seed: u64) -> RandomForestConfig {
    RandomForestConfig {
        trees: 60,
        max_depth: 14,
        min_split: 4,
        features_per_split: 0,
        seed,
    }
}

/// `par_map` grain of cross-validation: one (model, fold) fit-and-score
/// job costs ≥ 1 ms against a ~50 µs spawn (DESIGN.md §5).
const CV_GRAIN: usize = 1;

/// Runs k-fold cross-validation of Naive Bayes, KNN and Random Forest on
/// the ground-truth dataset (Table 7 / Figure 10), on one worker per
/// available core.
pub fn train_and_evaluate(data: &Dataset, folds: usize, seed: u64) -> EvalReport {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    evaluate(data, folds, seed, workers)
}

/// [`train_and_evaluate`] on up to `threads` workers (the pipeline passes
/// `SimConfig::threads`, so `--threads 1` stays serial).
pub(crate) fn evaluate(data: &Dataset, folds: usize, seed: u64, threads: usize) -> EvalReport {
    let models = ["NaiveBayes", "KNN", "RandomForest"]
        .into_iter()
        .zip(pooled_cv_scores(data, folds, seed, threads))
        .map(|(name, scores)| ModelEval {
            name,
            metrics: Metrics::from_scores(&scores, 0.5),
            roc: RocCurve::from_scores(&scores),
        })
        .collect();
    EvalReport {
        models,
        train_shape: (data.positives(), data.len() - data.positives()),
    }
}

/// The held-out scores of NB, KNN and RF, each what
/// [`squatphi_ml::cross_validate`] pools. The 3 × `folds` (model, fold)
/// jobs are independent and run on `par_map`; each model's scores are
/// concatenated in fold order, so the result is the same at every thread
/// count.
fn pooled_cv_scores(
    data: &Dataset,
    folds: usize,
    seed: u64,
    threads: usize,
) -> [Vec<(f64, bool)>; 3] {
    let fold_ids = data.stratified_folds(folds, seed);
    // Jobs longest first — RF, KNN, NB — so the slow fits start first.
    let scores = par_map(3 * folds, threads, CV_GRAIN, |job| {
        let fold = job % folds;
        match job / folds {
            0 => cross_validate_fold(
                RandomForest::new(forest_config(seed)),
                data,
                &fold_ids,
                fold,
            ),
            1 => cross_validate_fold(Knn::new(5), data, &fold_ids, fold),
            _ => cross_validate_fold(GaussianNb::new(), data, &fold_ids, fold),
        }
    });
    let pooled = |model: usize| scores[model * folds..(model + 1) * folds].concat();
    [pooled(2), pooled(1), pooled(0)]
}

/// Fits the production Random Forest on the full ground truth.
pub fn fit_final_model(data: &Dataset, seed: u64) -> RandomForest {
    let mut rf = RandomForest::new(forest_config(seed));
    rf.fit(data);
    rf
}

/// Builds the ground-truth dataset the paper trains on: manually-verified
/// phishing pages (positives), taken-down/benign feed pages plus sampled
/// easy-to-confuse squatting pages (negatives).
pub fn build_ground_truth(
    extractor: &FeatureExtractor,
    phishing_pages: &[&str],
    benign_pages: &[&str],
    threads: usize,
) -> Dataset {
    let mut pages: Vec<(&str, bool)> =
        Vec::with_capacity(phishing_pages.len() + benign_pages.len());
    pages.extend(phishing_pages.iter().map(|h| (*h, true)));
    pages.extend(benign_pages.iter().map(|h| (*h, false)));
    extractor.build_dataset(&pages, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_ml::cross_validate;
    use squatphi_squat::BrandRegistry;
    use squatphi_web::pages;

    fn small_ground_truth() -> (FeatureExtractor, Dataset) {
        let reg = BrandRegistry::with_size(20);
        let fx = FeatureExtractor::new(&reg);
        let mut phishing = Vec::new();
        let mut benign = Vec::new();
        for (i, b) in reg.brands().iter().enumerate() {
            phishing.push(pages::non_squatting_phishing_page(
                b,
                i % 3 == 0,
                &format!("{}-x{}.com", b.label, i),
                i as u64,
            ));
            benign.push(pages::benign_page(&format!("b{i}.com"), i as u64));
            benign.push(pages::confusing_benign_page(
                &format!("c{i}.com"),
                Some(&b.label),
                i as u64,
            ));
        }
        let p: Vec<&str> = phishing.iter().map(String::as_str).collect();
        let n: Vec<&str> = benign.iter().map(String::as_str).collect();
        let data = build_ground_truth(&fx, &p, &n, 4);
        (fx, data)
    }

    #[test]
    fn evaluation_produces_three_models() {
        let (_fx, data) = small_ground_truth();
        let report = train_and_evaluate(&data, 5, 1);
        assert_eq!(report.models.len(), 3);
        assert_eq!(report.train_shape, (20, 40));
        for m in &report.models {
            assert!(m.metrics.auc > 0.5, "{} AUC {}", m.name, m.metrics.auc);
            assert!(m.roc.points.len() >= 2);
        }
    }

    #[test]
    fn random_forest_is_best_and_accurate() {
        let (_fx, data) = small_ground_truth();
        let report = train_and_evaluate(&data, 5, 1);
        let rf = report
            .models
            .iter()
            .find(|m| m.name == "RandomForest")
            .unwrap();
        // The fixture deliberately contains feature-identical benign
        // shells (brand mirrors), so even a perfect learner cannot reach
        // AUC 1.0 at this tiny scale.
        assert!(rf.metrics.auc > 0.8, "RF AUC {}", rf.metrics.auc);
        assert_eq!(
            report.best().name,
            report
                .models
                .iter()
                .max_by(|a, b| a.metrics.auc.partial_cmp(&b.metrics.auc).unwrap())
                .unwrap()
                .name
        );
    }

    #[test]
    fn pooled_scores_equal_serial_cross_validate_at_every_thread_count() {
        let (_fx, data) = small_ground_truth();
        let (folds, seed) = (5, 3);
        let bits = |scores: &[(f64, bool)]| -> Vec<(u64, bool)> {
            scores.iter().map(|&(s, y)| (s.to_bits(), y)).collect()
        };
        let serial = [
            cross_validate(GaussianNb::new, &data, folds, seed),
            cross_validate(|| Knn::new(5), &data, folds, seed),
            cross_validate(
                || RandomForest::new(forest_config(seed)),
                &data,
                folds,
                seed,
            ),
        ];
        for threads in [1, 2, 8] {
            let pooled = pooled_cv_scores(&data, folds, seed, threads);
            for (model, (p, s)) in pooled.iter().zip(&serial).enumerate() {
                assert_eq!(p.len(), data.len());
                assert_eq!(bits(p), bits(s), "model {model} at {threads} workers");
            }
        }
    }

    #[test]
    fn final_model_separates_fresh_pages() {
        let (fx, data) = small_ground_truth();
        let model = fit_final_model(&data, 2);
        let reg = BrandRegistry::with_size(25);
        let unseen_brand = reg.brands().last().unwrap();
        let phish = pages::non_squatting_phishing_page(unseen_brand, false, "fresh.com", 99);
        let benign = pages::benign_page("fresh-benign.com", 99);
        assert!(model.score(&fx.extract(&phish)) > model.score(&fx.extract(&benign)));
    }
}
