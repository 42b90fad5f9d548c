//! Labeled sparse datasets and stratified fold splitting.

use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_nlp::SparseVec;

/// A labeled binary-classification dataset over sparse vectors.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    dim: usize,
    xs: Vec<SparseVec>,
    ys: Vec<bool>,
}

impl Dataset {
    /// Empty dataset with a fixed feature dimension.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Appends a labeled sample.
    pub fn push(&mut self, x: SparseVec, y: bool) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature vector of sample `i`.
    pub fn x(&self, i: usize) -> &SparseVec {
        &self.xs[i]
    }

    /// Label of sample `i`.
    pub fn y(&self, i: usize) -> bool {
        self.ys[i]
    }

    /// Count of positive samples.
    pub fn positives(&self) -> usize {
        self.ys.iter().filter(|&&y| y).count()
    }

    /// Iterator over (x, y) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&SparseVec, bool)> {
        self.xs.iter().zip(self.ys.iter().copied())
    }

    /// Assigns every sample to one of `k` folds, stratified by class so
    /// each fold keeps the global positive rate. Returns fold ids.
    pub fn stratified_folds(&self, k: usize, seed: u64) -> Vec<usize> {
        let k = k.max(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos: Vec<usize> = (0..self.len()).filter(|&i| self.ys[i]).collect();
        let mut neg: Vec<usize> = (0..self.len()).filter(|&i| !self.ys[i]).collect();
        pos.shuffle(&mut rng);
        neg.shuffle(&mut rng);
        let mut folds = vec![0usize; self.len()];
        for (j, &i) in pos.iter().enumerate() {
            folds[i] = j % k;
        }
        for (j, &i) in neg.iter().enumerate() {
            folds[i] = j % k;
        }
        folds
    }

    /// Splits into (train, test) where `test` is the samples whose fold id
    /// equals `fold`.
    pub fn split_fold(&self, folds: &[usize], fold: usize) -> (Dataset, Dataset) {
        let mut train = Dataset::new(self.dim);
        let mut test = Dataset::new(self.dim);
        for (i, &f) in folds.iter().enumerate().take(self.len()) {
            let target = if f == fold { &mut test } else { &mut train };
            target.push(self.xs[i].clone(), self.ys[i]);
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n_pos: usize, n_neg: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n_pos {
            let mut v = SparseVec::new();
            v.add(0, i as f64);
            d.push(v, true);
        }
        for i in 0..n_neg {
            let mut v = SparseVec::new();
            v.add(1, i as f64);
            d.push(v, false);
        }
        d
    }

    #[test]
    fn folds_are_stratified() {
        let d = data(50, 100);
        let folds = d.stratified_folds(5, 42);
        for f in 0..5 {
            let pos = (0..d.len()).filter(|&i| folds[i] == f && d.y(i)).count();
            let neg = (0..d.len()).filter(|&i| folds[i] == f && !d.y(i)).count();
            assert_eq!(pos, 10, "fold {f} positives");
            assert_eq!(neg, 20, "fold {f} negatives");
        }
    }

    #[test]
    fn split_partitions_cleanly() {
        let d = data(10, 10);
        let folds = d.stratified_folds(4, 1);
        let (train, test) = d.split_fold(&folds, 0);
        assert_eq!(train.len() + test.len(), d.len());
        assert!(test.len() >= 4);
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let d = data(30, 30);
        assert_eq!(d.stratified_folds(10, 7), d.stratified_folds(10, 7));
        assert_ne!(d.stratified_folds(10, 7), d.stratified_folds(10, 8));
    }

    #[test]
    fn positives_counted() {
        assert_eq!(data(7, 3).positives(), 7);
    }
}
