//! Property-based tests for the Hamming-space NN index ([`squatphi_imghash::index`]).
//!
//! Three families: metric axioms on the one shared distance path
//! ([`hamming64`]), build/query round-trips on [`HashIndex`], and the
//! index-vs-linear differential that pins every lookup to the preserved
//! [`linear`] oracle (the conformance `phash-index` oracle covers the same
//! contract at scale; this suite covers it under shrunk random inputs).

use proptest::prelude::*;
use squatphi_imghash::index::{linear, HashIndex};
use squatphi_imghash::{hamming64, ImageHash};

/// The checked-in `properties.proptest-regressions` must actually be found
/// and parsed by the runner — a silently-missing regression file would
/// quietly stop replaying known-bad inputs.
#[test]
fn regression_file_is_loaded() {
    let seeds = proptest::regressions::load_for_source(file!(), env!("CARGO_MANIFEST_DIR"));
    assert!(
        !seeds.is_empty(),
        "crates/imghash/tests/properties.proptest-regressions exists but no seeds were loaded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    // ---- metric axioms -----------------------------------------------------

    #[test]
    fn hamming_is_a_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(hamming64(a, b), hamming64(b, a), "symmetry");
        prop_assert_eq!(hamming64(a, a), 0, "identity");
        if a != b {
            prop_assert!(hamming64(a, b) > 0, "distinct hashes at distance 0");
        }
        prop_assert!(hamming64(a, b) <= 64, "distance exceeds word width");
        prop_assert!(
            hamming64(a, c) <= hamming64(a, b) + hamming64(b, c),
            "triangle inequality violated"
        );
    }

    #[test]
    fn image_hash_distance_is_the_shared_path(a in any::<u64>(), b in any::<u64>()) {
        // `ImageHash::distance`, `from_bits`/`to_bits` and the free function
        // must all agree — there is exactly one distance implementation.
        let (ha, hb) = (ImageHash::from_bits(a), ImageHash::from_bits(b));
        prop_assert_eq!(ha.distance(&hb), hamming64(a, b));
        prop_assert_eq!(ha.to_bits(), a);
    }

    // ---- build/query round-trip --------------------------------------------

    #[test]
    fn insert_query_round_trips(bits in proptest::collection::vec(any::<u64>(), 1..40)) {
        let index = HashIndex::from_hashes(bits.iter().copied().map(ImageHash));
        prop_assert_eq!(index.len(), bits.len());
        prop_assert_eq!(index.get(bits.len() as u32), None);
        for (id, &b) in (0u32..).zip(&bits) {
            // Ids are dense corpus positions.
            prop_assert_eq!(index.get(id), Some(ImageHash(b)));
            // A radius-0 query for a stored hash finds that insert (and only
            // entries carrying the identical hash, all at distance 0).
            let hits = index.within(&ImageHash(b), 0);
            prop_assert!(hits.iter().any(|n| n.id == id), "insert {id} lost");
            for n in &hits {
                prop_assert_eq!(n.hash, ImageHash(b));
                prop_assert_eq!(n.distance, 0);
            }
        }
    }

    // ---- radius monotonicity -----------------------------------------------

    #[test]
    fn radius_growth_only_adds_results(
        bits in proptest::collection::vec(any::<u64>(), 0..48),
        query in any::<u64>(),
        radius in 0u32..64,
    ) {
        let index = HashIndex::from_hashes(bits.iter().copied().map(ImageHash));
        let q = ImageHash(query);
        let smaller = index.within(&q, radius);
        let larger = index.within(&q, radius + 1);
        prop_assert!(smaller.len() <= larger.len());
        // Both lists are ascending by insertion id, so the subset check is a
        // single merge walk.
        let mut it = larger.iter();
        for n in &smaller {
            prop_assert!(n.distance <= radius, "neighbor outside the radius");
            prop_assert!(
                it.any(|m| m == n),
                "within({radius}) result missing from within({})", radius + 1
            );
        }
    }

    // ---- differential vs the linear oracle ---------------------------------

    #[test]
    fn within_matches_linear(
        bits in proptest::collection::vec(any::<u64>(), 0..60),
        query in any::<u64>(),
        radius in 0u32..66,
    ) {
        // The top draw stands for the widest radius there is.
        let radius = if radius == 65 { u32::MAX } else { radius };
        let corpus: Vec<ImageHash> = bits.iter().copied().map(ImageHash).collect();
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let q = ImageHash(query);
        prop_assert_eq!(index.within(&q, radius), linear::within(&corpus, &q, radius));
    }

    #[test]
    fn nearest_matches_linear(
        bits in proptest::collection::vec(any::<u64>(), 0..60),
        query in any::<u64>(),
        k in 0usize..12,
    ) {
        let corpus: Vec<ImageHash> = bits.iter().copied().map(ImageHash).collect();
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let q = ImageHash(query);
        prop_assert_eq!(index.nearest(&q, k), linear::nearest(&corpus, &q, k));
    }

    #[test]
    fn duplicate_heavy_corpora_stay_exact(
        // Hashes drawn from an 8-value alphabet: floods MIH buckets and
        // forces the BK-tree fallback, which must not change any answer.
        picks in proptest::collection::vec(0u64..8, 1..80),
        query in 0u64..8,
        radius in 0u32..10,
    ) {
        let corpus: Vec<ImageHash> = picks.iter().map(|&p| ImageHash(p)).collect();
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let q = ImageHash(query);
        prop_assert_eq!(index.within(&q, radius), linear::within(&corpus, &q, radius));
        prop_assert_eq!(index.nearest(&q, 5), linear::nearest(&corpus, &q, 5));
        // Conservation must hold no matter which path answered.
        let snap = index.telemetry().snapshot();
        prop_assert_eq!(
            snap.u64_or_zero("phash.index.probes"),
            snap.u64_or_zero("phash.index.verified") + snap.u64_or_zero("phash.index.pruned")
        );
    }
}
