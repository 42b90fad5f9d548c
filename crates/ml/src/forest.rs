//! CART decision trees and a seeded random forest.
//!
//! Gini-impurity splits on densified features, bagging over bootstrap
//! samples, and sqrt-feature subsampling per split — the standard Breiman
//! recipe, which is what Table 7's winning model runs.
//!
//! `fit` densifies the training set once, feature-major (one contiguous
//! column of `n` values per feature, zeros filled in), and each tree's
//! bootstrap is a bag of row ids into it. Scoring a sampled feature at a
//! node gathers the node's `(value, label)` pairs from that column once
//! and counts every candidate threshold over the gathered buffer. The
//! split rules themselves — 32 sample values as candidates, the RNG draw
//! order, the `1e-12` improvement margin, partition order — are those of
//! the sparse-vector builder this replaced, so a seed grows the same trees
//! bit for bit (`forest::oracle` keeps that builder and checks it).

use crate::{Classifier, Dataset};
use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_nlp::SparseVec;

/// Random forest hyperparameters.
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_split: usize,
    /// Features tried per split; 0 = sqrt(dim).
    pub features_per_split: usize,
    /// Seed for bagging and feature subsampling.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            trees: 50,
            max_depth: 12,
            min_split: 4,
            features_per_split: 0,
            seed: 97,
        }
    }
}

/// One node of a CART tree, stored in an arena.
#[derive(Debug, Clone)]
enum TreeNode {
    Leaf {
        /// Positive-class probability at this leaf.
        p_pos: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A single fitted CART tree.
#[derive(Debug, Clone, Default)]
struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    fn score(&self, x: &SparseVec) -> f64 {
        if self.nodes.is_empty() {
            return 0.5;
        }
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                TreeNode::Leaf { p_pos } => return *p_pos,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x.get(*feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// The training set as the split search reads it: feature `f`'s value for
/// sample `i` is `values[f * n + i]` (0.0 where the sparse vector has no
/// entry), so one feature of a node is a gather from one contiguous
/// column instead of a binary search per sample.
struct Columns {
    n: usize,
    values: Vec<f64>,
    labels: Vec<bool>,
}

impl Columns {
    fn new(data: &Dataset) -> Self {
        let (n, dim) = (data.len(), data.dim());
        let mut values = vec![0.0; n * dim];
        for (i, (x, _)) in data.iter().enumerate() {
            // Entries at or past `dim` are never split on.
            for &(f, v) in x.entries().iter().take_while(|e| e.0 < dim) {
                values[f * n + i] = v;
            }
        }
        Columns {
            n,
            values,
            labels: data.iter().map(|(_, y)| y).collect(),
        }
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.n..(f + 1) * self.n]
    }
}

/// Bagging: `n` row ids drawn with replacement, one `gen_range` each.
fn bootstrap(n: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

/// Grows one tree over a bag of row ids of [`Columns`].
struct Builder<'a> {
    data: &'a Columns,
    cfg: &'a RandomForestConfig,
    features: usize,
    /// Scratch reused across nodes: the sampled values a feature's
    /// candidate thresholds come from, and the node's values and labels
    /// for that feature.
    candidates: Vec<f64>,
    values: Vec<f64>,
    labels: Vec<bool>,
}

impl Builder<'_> {
    fn gini(pos: usize, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let p = pos as f64 / total as f64;
        2.0 * p * (1.0 - p)
    }

    fn build(
        &mut self,
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let data = self.data;
        let pos = idx.iter().filter(|&&i| data.labels[i]).count();
        let total = idx.len();
        let make_leaf = |nodes: &mut Vec<TreeNode>| {
            nodes.push(TreeNode::Leaf {
                p_pos: if total == 0 {
                    0.5
                } else {
                    pos as f64 / total as f64
                },
            });
            nodes.len() - 1
        };
        if depth >= self.cfg.max_depth || total < self.cfg.min_split || pos == 0 || pos == total {
            return make_leaf(nodes);
        }
        // Feature subsample.
        let m = if self.cfg.features_per_split == 0 {
            (self.features as f64).sqrt().ceil() as usize
        } else {
            self.cfg.features_per_split
        }
        .clamp(1, self.features);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity)
        let parent_gini = Self::gini(pos, total);
        for _ in 0..m {
            let f = rng.gen_range(0..self.features);
            let column = data.column(f);
            // Candidate thresholds: a few sample values of this feature.
            let candidates = &mut self.candidates;
            candidates.clear();
            candidates.extend(idx.iter().take(32).map(|&i| column[i]));
            candidates.sort_by(f64::total_cmp);
            candidates.dedup();
            if candidates.len() < 2 {
                continue;
            }
            self.values.clear();
            self.values.extend(idx.iter().map(|&i| column[i]));
            self.labels.clear();
            self.labels.extend(idx.iter().map(|&i| data.labels[i]));
            for w in self.candidates.windows(2) {
                let threshold = (w[0] + w[1]) / 2.0;
                let (mut lp, mut lt) = (0usize, 0usize);
                for (&v, &y) in self.values.iter().zip(&self.labels) {
                    let left = v <= threshold;
                    lt += usize::from(left);
                    lp += usize::from(left & y);
                }
                let (rt, rp) = (total - lt, pos - lp);
                if lt == 0 || rt == 0 {
                    continue;
                }
                let impurity = (lt as f64 * Self::gini(lp, lt) + rt as f64 * Self::gini(rp, rt))
                    / total as f64;
                if impurity + 1e-12 < best.map(|b| b.2).unwrap_or(parent_gini) {
                    best = Some((f, threshold, impurity));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return make_leaf(nodes);
        };
        let column = data.column(feature);
        let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| column[i] <= threshold);
        let at = nodes.len();
        nodes.push(TreeNode::Leaf { p_pos: 0.5 }); // placeholder
        let left = self.build(&mut left_idx, depth + 1, rng, nodes);
        let right = self.build(&mut right_idx, depth + 1, rng, nodes);
        nodes[at] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }
}

/// The random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    cfg: RandomForestConfig,
    trees: Vec<Tree>,
}

impl RandomForest {
    /// New, unfitted forest.
    pub fn new(cfg: RandomForestConfig) -> Self {
        RandomForest {
            cfg,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Serializes the fitted forest to a compact line-oriented text form
    /// (the train-stage checkpoint payload). Thresholds and leaf
    /// probabilities are written as `f64::to_bits` integers so
    /// [`decode`](RandomForest::decode) reproduces scores bit-for-bit.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "rf1 {} {} {} {} {}\n",
            self.cfg.trees,
            self.cfg.max_depth,
            self.cfg.min_split,
            self.cfg.features_per_split,
            self.cfg.seed
        );
        for tree in &self.trees {
            out.push_str(&format!("T {}\n", tree.nodes.len()));
            for node in &tree.nodes {
                match node {
                    TreeNode::Leaf { p_pos } => {
                        out.push_str(&format!("L {}\n", p_pos.to_bits()));
                    }
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        out.push_str(&format!(
                            "S {feature} {} {left} {right}\n",
                            threshold.to_bits()
                        ));
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`encode`](RandomForest::encode).
    pub fn decode(text: &str) -> Result<RandomForest, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty forest encoding")?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("rf1") {
            return Err("bad forest magic (expected rf1)".into());
        }
        let mut field = |name: &str| -> Result<u64, String> {
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad forest header field {name}"))
        };
        let cfg = RandomForestConfig {
            trees: field("trees")? as usize,
            max_depth: field("max_depth")? as usize,
            min_split: field("min_split")? as usize,
            features_per_split: field("features_per_split")? as usize,
            seed: field("seed")?,
        };
        let mut trees = Vec::new();
        while let Some(line) = lines.next() {
            let count: usize = line
                .strip_prefix("T ")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("expected tree header, got {line:?}"))?;
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                let line = lines.next().ok_or("truncated tree")?;
                let mut parts = line.split_whitespace();
                match parts.next() {
                    Some("L") => {
                        let bits: u64 = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| format!("bad leaf line {line:?}"))?;
                        nodes.push(TreeNode::Leaf {
                            p_pos: f64::from_bits(bits),
                        });
                    }
                    Some("S") => {
                        let mut num = |what: &str| -> Result<u64, String> {
                            parts
                                .next()
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| format!("bad split {what} in {line:?}"))
                        };
                        let feature = num("feature")? as usize;
                        let threshold = f64::from_bits(num("threshold")?);
                        let left = num("left")? as usize;
                        let right = num("right")? as usize;
                        if left >= count || right >= count {
                            return Err(format!("split child out of bounds in {line:?}"));
                        }
                        nodes.push(TreeNode::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        });
                    }
                    _ => return Err(format!("bad node line {line:?}")),
                }
            }
            trees.push(Tree { nodes });
        }
        Ok(RandomForest { cfg, trees })
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.trees.clear();
        if data.is_empty() {
            return;
        }
        let columns = Columns::new(data);
        let mut builder = Builder {
            data: &columns,
            cfg: &self.cfg,
            features: data.dim(),
            candidates: Vec::with_capacity(32),
            values: Vec::with_capacity(data.len()),
            labels: Vec::with_capacity(data.len()),
        };
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        for _ in 0..self.cfg.trees {
            let mut bag = bootstrap(data.len(), &mut rng);
            let mut nodes = Vec::new();
            // The root lands at index 0 because build pushes it first (the
            // placeholder trick keeps child order stable for splits).
            builder.build(&mut bag, 0, &mut rng, &mut nodes);
            self.trees.push(Tree { nodes });
        }
    }

    fn score(&self, x: &SparseVec) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        self.trees.iter().map(|t| t.score(x)).sum::<f64>() / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "RandomForest"
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_ish() -> Dataset {
        // Positive iff dim0 high XOR dim1 high — needs depth > 1.
        let mut d = Dataset::new(2);
        for i in 0..25 {
            let jitter = (i % 5) as f64 * 0.01;
            let mut a = SparseVec::new();
            a.add(0, 1.0 + jitter);
            d.push(a, true);
            let mut b = SparseVec::new();
            b.add(1, 1.0 + jitter);
            d.push(b, true);
            let mut c = SparseVec::new();
            c.add(0, 1.0 + jitter);
            c.add(1, 1.0 + jitter);
            d.push(c, false);
            d.push(SparseVec::new(), false);
        }
        d
    }

    #[test]
    fn forest_learns_xor() {
        let mut m = RandomForest::new(RandomForestConfig {
            trees: 30,
            ..Default::default()
        });
        m.fit(&xor_ish());
        let mut a = SparseVec::new();
        a.add(0, 1.0);
        assert!(m.predict(&a), "dim0-only should be positive");
        let mut both = SparseVec::new();
        both.add(0, 1.0);
        both.add(1, 1.0);
        assert!(!m.predict(&both), "both-high should be negative");
        assert!(!m.predict(&SparseVec::new()), "empty should be negative");
    }

    #[test]
    fn deterministic_per_seed() {
        let data = xor_ish();
        let mut a = RandomForest::new(RandomForestConfig {
            trees: 10,
            seed: 5,
            ..Default::default()
        });
        let mut b = RandomForest::new(RandomForestConfig {
            trees: 10,
            seed: 5,
            ..Default::default()
        });
        a.fit(&data);
        b.fit(&data);
        let mut q = SparseVec::new();
        q.add(0, 0.7);
        assert_eq!(a.score(&q), b.score(&q));
    }

    #[test]
    fn empty_data_scores_half() {
        let mut m = RandomForest::new(RandomForestConfig::default());
        m.fit(&Dataset::new(3));
        assert_eq!(m.score(&SparseVec::new()), 0.5);
    }

    #[test]
    fn pure_class_data_yields_constant() {
        let mut d = Dataset::new(2);
        for _ in 0..10 {
            let mut v = SparseVec::new();
            v.add(0, 1.0);
            d.push(v, true);
        }
        let mut m = RandomForest::new(RandomForestConfig {
            trees: 5,
            ..Default::default()
        });
        m.fit(&d);
        assert!(m.score(&SparseVec::new()) > 0.9);
    }

    #[test]
    fn encode_decode_round_trips_scores_exactly() {
        let mut m = RandomForest::new(RandomForestConfig {
            trees: 12,
            seed: 3,
            ..Default::default()
        });
        m.fit(&xor_ish());
        let decoded = RandomForest::decode(&m.encode()).unwrap();
        assert_eq!(decoded.tree_count(), m.tree_count());
        for i in 0..20 {
            let mut q = SparseVec::new();
            q.add(i % 2, 0.1 * i as f64);
            assert_eq!(m.score(&q).to_bits(), decoded.score(&q).to_bits());
        }
        // Malformed encodings are rejected, never panic.
        assert!(RandomForest::decode("").is_err());
        assert!(RandomForest::decode("rf2 1 1 1 0 0").is_err());
        assert!(RandomForest::decode("rf1 1 1 1 0 0\nT 2\nL 0").is_err());
        assert!(RandomForest::decode("rf1 1 1 1 0 0\nT 1\nS 0 0 5 6").is_err());
    }

    #[test]
    fn bootstrap_same_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let bag = bootstrap(40, &mut rng);
        assert_eq!(bag.len(), 40);
        assert!(bag.iter().all(|&i| i < 40));
    }

    #[test]
    fn tree_count_matches_config() {
        let mut m = RandomForest::new(RandomForestConfig {
            trees: 7,
            ..Default::default()
        });
        m.fit(&xor_ish());
        assert_eq!(m.tree_count(), 7);
    }
}
