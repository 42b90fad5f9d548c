//! Feature embedding: keyword frequencies + numeric features → sparse
//! vectors (paper §5.2 "Feature Embedding").
//!
//! The paper builds a 987-dimension vector per page from (a) keywords
//! frequent in ground-truth phishing pages, (b) the 766 brand-name
//! keywords, and (c) numeric features like form counts. Vectors are very
//! sparse, so we store index/value pairs and let the ML crate densify
//! when an algorithm needs it.

use std::collections::HashMap;

/// A sparse feature vector: sorted (index, value) pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(usize, f64)>,
}

impl SparseVec {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` at `index` (accumulating duplicates).
    pub fn add(&mut self, index: usize, value: f64) {
        match self.entries.binary_search_by_key(&index, |e| e.0) {
            Ok(pos) => self.entries[pos].1 += value,
            Err(pos) => self.entries.insert(pos, (index, value)),
        }
    }

    /// Value at `index` (0.0 when absent).
    pub fn get(&self, index: usize) -> f64 {
        match self.entries.binary_search_by_key(&index, |e| e.0) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Non-zero entries, index-sorted.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Densifies to length `dim`.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut v = vec![0.0; dim];
        for &(i, val) in &self.entries {
            if i < dim {
                v[i] = val;
            }
        }
        v
    }

    /// Squared Euclidean distance to another sparse vector.
    pub fn sq_distance(&self, other: &SparseVec) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    acc += a[i].1 * a[i].1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    acc += b[j].1 * b[j].1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let d = a[i].1 - b[j].1;
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(_, v) in &a[i..] {
            acc += v * v;
        }
        for &(_, v) in &b[j..] {
            acc += v * v;
        }
        acc
    }

    /// Cosine similarity to another sparse vector, in `[-1, 1]`.
    /// Zero vectors (no entries, or all-zero values) yield `0.0` rather
    /// than `NaN` so callers can treat "no signal" as "no similarity".
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut dot = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f64 = a.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        // Floating-point rounding can push |dot| a hair past na*nb; clamp
        // so the result is a true cosine.
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// The feature space: a frozen keyword → dimension mapping plus named
/// numeric dimensions appended at the end.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    keyword_index: HashMap<String, usize>,
    numeric_names: Vec<String>,
}

impl FeatureSpace {
    /// Builds a space from keyword and numeric-feature name lists.
    /// Keywords are deduplicated; order fixes dimensions.
    pub fn new<I, S>(keywords: I, numeric: &[&str]) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut keyword_index = HashMap::new();
        for k in keywords {
            let k = k.as_ref().to_ascii_lowercase();
            let next = keyword_index.len();
            keyword_index.entry(k).or_insert(next);
        }
        FeatureSpace {
            keyword_index,
            numeric_names: numeric.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Total dimension (keywords + numeric features).
    pub fn dim(&self) -> usize {
        self.keyword_index.len() + self.numeric_names.len()
    }

    /// Dimension of a keyword, if mapped.
    pub fn keyword(&self, word: &str) -> Option<usize> {
        self.keyword_index.get(word).copied()
    }

    /// Dimension of a numeric feature by name.
    pub fn numeric(&self, name: &str) -> Option<usize> {
        self.numeric_names
            .iter()
            .position(|n| n == name)
            .map(|p| p + self.keyword_index.len())
    }

    /// Embeds a token stream: keyword frequencies land on their dims.
    pub fn embed_tokens<'a, I>(&self, tokens: I) -> SparseVec
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut v = SparseVec::new();
        for t in tokens {
            if let Some(i) = self.keyword(t) {
                v.add(i, 1.0);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> FeatureSpace {
        FeatureSpace::new(
            ["password", "login", "email", "paypal"],
            &["form_count", "password_inputs"],
        )
    }

    #[test]
    fn dimensions_are_stable() {
        let s = space();
        assert_eq!(s.dim(), 6);
        assert_eq!(s.keyword("password"), Some(0));
        assert_eq!(s.keyword("paypal"), Some(3));
        assert_eq!(s.numeric("form_count"), Some(4));
        assert_eq!(s.numeric("password_inputs"), Some(5));
        assert_eq!(s.keyword("unknown"), None);
        assert_eq!(s.numeric("unknown"), None);
    }

    #[test]
    fn duplicate_keywords_collapse() {
        let s = FeatureSpace::new(["a", "b", "a"], &[]);
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn embed_counts_frequencies() {
        let s = space();
        let v = s.embed_tokens(["password", "password", "login", "nothing"]);
        assert_eq!(v.get(0), 2.0);
        assert_eq!(v.get(1), 1.0);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn sparse_ops() {
        let mut v = SparseVec::new();
        v.add(5, 1.0);
        v.add(2, 3.0);
        v.add(5, 1.0);
        assert_eq!(v.get(5), 2.0);
        assert_eq!(v.get(2), 3.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.entries(), &[(2, 3.0), (5, 2.0)]);
        let dense = v.to_dense(7);
        assert_eq!(dense[2], 3.0);
        assert_eq!(dense[5], 2.0);
    }

    #[test]
    fn sq_distance_matches_dense() {
        let mut a = SparseVec::new();
        a.add(0, 1.0);
        a.add(3, 2.0);
        let mut b = SparseVec::new();
        b.add(3, 1.0);
        b.add(7, 4.0);
        let dim = 8;
        let da = a.to_dense(dim);
        let db = b.to_dense(dim);
        let expect: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((a.sq_distance(&b) - expect).abs() < 1e-12);
        assert_eq!(a.sq_distance(&a), 0.0);
    }

    #[test]
    fn embed_is_case_insensitive_on_space_construction() {
        let s = FeatureSpace::new(["PassWord"], &[]);
        assert!(s.keyword("password").is_some());
    }

    #[test]
    fn cosine_known_values() {
        let mut a = SparseVec::new();
        a.add(0, 1.0);
        let mut b = SparseVec::new();
        b.add(0, 2.0);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12, "parallel vectors");
        let mut c = SparseVec::new();
        c.add(1, 3.0);
        assert_eq!(a.cosine(&c), 0.0, "orthogonal vectors");
        let mut d = SparseVec::new();
        d.add(0, -5.0);
        assert!((a.cosine(&d) + 1.0).abs() < 1e-12, "opposite vectors");
        assert_eq!(a.cosine(&SparseVec::new()), 0.0, "zero vector is 0");
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12, "self-similarity");
    }
}
