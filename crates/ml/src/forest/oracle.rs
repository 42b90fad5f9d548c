//! `RandomForest::fit` against the sparse-vector forest it replaced, kept
//! verbatim below as the oracle: a cloned-sample bootstrap per tree and a
//! `SparseVec::get` (binary search) for every (sample, threshold) pair.
//! The feature-major fit must grow the same trees bit for bit, so
//! `encode()` — the train checkpoint's payload — is compared byte for
//! byte on random sparse datasets.

use super::{RandomForest, RandomForestConfig, Tree, TreeNode};
use crate::{Classifier, Dataset};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_nlp::SparseVec;

/// The pre-columnar `Dataset::bootstrap`, verbatim but for field access.
fn bootstrap(data: &Dataset, rng: &mut StdRng) -> Dataset {
    let mut out = Dataset::new(data.dim());
    for _ in 0..data.len() {
        let i = rng.gen_range(0..data.len());
        out.push(data.x(i).clone(), data.y(i));
    }
    out
}

/// Index-based view of the training data used during tree construction.
struct Builder<'a> {
    data: &'a Dataset,
    cfg: &'a RandomForestConfig,
    features: usize,
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
        &self,
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let pos = idx.iter().filter(|&&i| self.data.y(i)).count();
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
            // Candidate thresholds: a few sample values of this feature.
            let mut values: Vec<f64> = idx
                .iter()
                .take(32)
                .map(|&i| self.data.x(i).get(f))
                .collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            for w in values.windows(2) {
                let threshold = (w[0] + w[1]) / 2.0;
                let (mut lp, mut lt) = (0usize, 0usize);
                for &i in idx.iter() {
                    if self.data.x(i).get(f) <= threshold {
                        lt += 1;
                        if self.data.y(i) {
                            lp += 1;
                        }
                    }
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
        let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| self.data.x(i).get(feature) <= threshold);
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

/// The pre-columnar `RandomForest::fit`, as a free function.
fn oracle_fit(cfg: &RandomForestConfig, data: &Dataset) -> RandomForest {
    let mut forest = RandomForest::new(cfg.clone());
    if data.is_empty() {
        return forest;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.trees {
        let bag = bootstrap(data, &mut rng);
        let builder = Builder {
            data: &bag,
            cfg,
            features: data.dim(),
        };
        let mut idx: Vec<usize> = (0..bag.len()).collect();
        let mut nodes = Vec::new();
        builder.build(&mut idx, 0, &mut rng, &mut nodes);
        forest.trees.push(Tree { nodes });
    }
    forest
}

fn assert_matches_oracle(cfg: &RandomForestConfig, data: &Dataset) {
    let mut fitted = RandomForest::new(cfg.clone());
    fitted.fit(data);
    assert_eq!(fitted.encode(), oracle_fit(cfg, data).encode(), "{cfg:?}");
}

/// Feature values the property draws from: signed zeros, a tiny and a
/// negative value, and small counts, so columns repeat values, hold
/// `-0.0` beside `0.0`, and (where no row sets them) stay all zero.
const VALUES: [f64; 8] = [-0.0, 0.0, 1.0, 2.0, 0.5, -1.5, 3.0, 1e-300];

/// A dataset from generated rows of `(index, value code)` entries. Indices
/// run past `dim`, which the forest must ignore. Labels: all positive, all
/// negative, or one bit of `label_bits` per row.
fn dataset(rows: &[Vec<(usize, u8)>], label_bits: u64, dim: usize) -> Dataset {
    let mut data = Dataset::new(dim);
    for (i, row) in rows.iter().enumerate() {
        let mut x = SparseVec::new();
        for &(f, code) in row {
            x.add(f, VALUES[usize::from(code)]);
        }
        let y = match label_bits % 4 {
            0 => true,
            1 => false,
            _ => (label_bits >> (i % 62 + 2)) & 1 == 1,
        };
        data.push(x, y);
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn fit_encodes_like_the_oracle_on_random_sparse_data(
        rows in proptest::collection::vec(
            proptest::collection::vec((0usize..14, 0u8..8), 0..8),
            0..48,
        ),
        label_bits in any::<u64>(),
        dim in 1usize..12,
        shape in (1usize..6, 1usize..8, 0usize..7, 0usize..5),
        seed in any::<u64>(),
    ) {
        let (trees, max_depth, min_split, features_per_split) = shape;
        let cfg = RandomForestConfig {
            trees,
            max_depth,
            min_split,
            features_per_split,
            seed,
        };
        let data = dataset(&rows, label_bits, dim);
        let mut fitted = RandomForest::new(cfg.clone());
        fitted.fit(&data);
        prop_assert_eq!(fitted.encode(), oracle_fit(&cfg, &data).encode());
    }
}

#[test]
fn fit_encodes_like_the_oracle_at_pipeline_shape() {
    // Keyword-count-like rows: ~10 of 200 dims set per row, labels
    // leaning on the first dims, deep trees (the reproduction's forest
    // is 60 trees of depth 14 over ~800 dims).
    let mut rng = StdRng::seed_from_u64(27);
    let mut data = Dataset::new(200);
    for _ in 0..600 {
        let mut x = SparseVec::new();
        for _ in 0..rng.gen_range(0..20) {
            x.add(rng.gen_range(0..210), f64::from(rng.gen_range(1u8..5)));
        }
        let y = x.get(0) + x.get(1) + x.get(2) > rng.gen_range(0.0..4.0);
        data.push(x, y);
    }
    for features_per_split in [0, 3, 40] {
        let cfg = RandomForestConfig {
            trees: 12,
            max_depth: 14,
            min_split: 4,
            features_per_split,
            seed: 2018,
        };
        assert_matches_oracle(&cfg, &data);
    }
}

#[test]
fn fit_encodes_like_the_oracle_on_edge_datasets() {
    let cfg = RandomForestConfig {
        trees: 4,
        ..Default::default()
    };
    // Empty, one row, fewer rows than `min_split`, single class.
    assert_matches_oracle(&cfg, &Dataset::new(3));
    let one = dataset(&[vec![(0, 2)]], 2, 3);
    assert_matches_oracle(&cfg, &one);
    let few = dataset(&[vec![(0, 2)], vec![(1, 3)], vec![]], 6, 3);
    assert_matches_oracle(&cfg, &few);
    let rows: Vec<Vec<(usize, u8)>> = (0..30).map(|i| vec![(i % 3, (i % 8) as u8)]).collect();
    for label_bits in [0, 1, 0x5555_5555_5555_5556] {
        assert_matches_oracle(&cfg, &dataset(&rows, label_bits, 3));
    }
    // Every value a signed zero: no feature has two candidate values.
    let zeros: Vec<Vec<(usize, u8)>> = (0..20).map(|i| vec![(i % 3, (i % 2) as u8)]).collect();
    assert_matches_oracle(&cfg, &dataset(&zeros, 3, 3));
}
