//! Property-based tests for the Hamming-space NN index ([`squatphi_imghash::index`]).
//!
//! Three families: metric axioms on the one shared distance path
//! ([`hamming64`]), build/query round-trips on [`HashIndex`], and the
//! index-vs-linear differential that pins every lookup to the preserved
//! [`linear`] oracle (the conformance `phash-index` oracle covers the same
//! contract at scale; this suite covers it under shrunk random inputs,
//! on the workspace harness `squatphi_prop`).

use squatphi_imghash::index::{linear, HashIndex};
use squatphi_imghash::{hamming64, ImageHash};
use squatphi_prop::{check, prop_assert, prop_assert_eq, Gen};

// ---- metric axioms -----------------------------------------------------

#[test]
fn hamming_is_a_metric() {
    let gen = |g: &mut Gen| (g.u64(), g.u64(), g.u64());
    check("hamming_is_a_metric", 160, gen, |(a, b, c)| {
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
        Ok(())
    });
}

#[test]
fn image_hash_distance_is_the_shared_path() {
    let gen = |g: &mut Gen| (g.u64(), g.u64());
    check(
        "image_hash_distance_is_the_shared_path",
        160,
        gen,
        |(a, b)| {
            // `ImageHash::distance`, `from_bits`/`to_bits` and the free
            // function must all agree — there is exactly one distance
            // implementation.
            let (ha, hb) = (ImageHash::from_bits(a), ImageHash::from_bits(b));
            prop_assert_eq!(ha.distance(&hb), hamming64(a, b));
            prop_assert_eq!(ha.to_bits(), a);
            Ok(())
        },
    );
}

// ---- build/query round-trip --------------------------------------------

#[test]
fn insert_query_round_trips() {
    let gen = |g: &mut Gen| g.vec(1..40, |g| g.u64());
    check("insert_query_round_trips", 160, gen, |bits| {
        let index = HashIndex::from_hashes(bits.iter().copied().map(ImageHash));
        prop_assert_eq!(index.len(), bits.len());
        prop_assert_eq!(index.get(bits.len() as u32), None);
        for (id, &b) in (0u32..).zip(&bits) {
            // Ids are dense corpus positions.
            prop_assert_eq!(index.get(id), Some(ImageHash(b)));
            // A radius-0 query for a stored hash finds that insert (and
            // only entries carrying the identical hash, all at distance 0).
            let hits = index.within(&ImageHash(b), 0);
            prop_assert!(hits.iter().any(|n| n.id == id), "insert {id} lost");
            for n in &hits {
                prop_assert_eq!(n.hash, ImageHash(b));
                prop_assert_eq!(n.distance, 0);
            }
        }
        Ok(())
    });
}

// ---- radius monotonicity -----------------------------------------------

#[test]
fn radius_growth_only_adds_results() {
    let gen = |g: &mut Gen| (g.vec(0..48, |g| g.u64()), g.u64(), g.below(64) as u32);
    check(
        "radius_growth_only_adds_results",
        160,
        gen,
        |(bits, query, radius)| {
            let index = HashIndex::from_hashes(bits.iter().copied().map(ImageHash));
            let q = ImageHash(query);
            let smaller = index.within(&q, radius);
            let larger = index.within(&q, radius + 1);
            prop_assert!(smaller.len() <= larger.len());
            // Both lists are ascending by insertion id, so the subset check
            // is a single merge walk.
            let mut it = larger.iter();
            for n in &smaller {
                prop_assert!(n.distance <= radius, "neighbor outside the radius");
                prop_assert!(
                    it.any(|m| m == n),
                    "within({radius}) result missing from within({})",
                    radius + 1
                );
            }
            Ok(())
        },
    );
}

// ---- differential vs the linear oracle ---------------------------------

fn within_matches_linear_case((bits, query, radius): (Vec<u64>, u64, u32)) -> Result<(), String> {
    // The top draw stands for the widest radius there is.
    let radius = if radius == 65 { u32::MAX } else { radius };
    let corpus: Vec<ImageHash> = bits.iter().copied().map(ImageHash).collect();
    let index = HashIndex::from_hashes(corpus.iter().copied());
    let q = ImageHash(query);
    prop_assert_eq!(
        index.within(&q, radius),
        linear::within(&corpus, &q, radius)
    );
    Ok(())
}

#[test]
fn within_matches_linear() {
    let gen = |g: &mut Gen| (g.vec(0..60, |g| g.u64()), g.u64(), g.below(66) as u32);
    check(
        "within_matches_linear",
        160,
        gen,
        within_matches_linear_case,
    );
}

/// A recorded failure of `within_matches_linear`, kept as a fixed case.
#[test]
fn within_matches_linear_on_one_zero_hash_at_radius_63() {
    within_matches_linear_case((vec![0], 0, 63)).unwrap();
}

#[test]
fn nearest_matches_linear() {
    let gen = |g: &mut Gen| (g.vec(0..60, |g| g.u64()), g.u64(), g.below(12) as usize);
    check("nearest_matches_linear", 160, gen, |(bits, query, k)| {
        let corpus: Vec<ImageHash> = bits.iter().copied().map(ImageHash).collect();
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let q = ImageHash(query);
        prop_assert_eq!(index.nearest(&q, k), linear::nearest(&corpus, &q, k));
        Ok(())
    });
}

fn duplicate_heavy_case((picks, query, radius): (Vec<u64>, u64, u32)) -> Result<(), String> {
    let corpus: Vec<ImageHash> = picks.iter().map(|&p| ImageHash(p)).collect();
    let index = HashIndex::from_hashes(corpus.iter().copied());
    let q = ImageHash(query);
    prop_assert_eq!(
        index.within(&q, radius),
        linear::within(&corpus, &q, radius)
    );
    prop_assert_eq!(index.nearest(&q, 5), linear::nearest(&corpus, &q, 5));
    // Conservation must hold no matter which path answered.
    let snap = index.telemetry().snapshot();
    prop_assert_eq!(
        snap.u64_or_zero("phash.index.probes"),
        snap.u64_or_zero("phash.index.verified") + snap.u64_or_zero("phash.index.pruned")
    );
    Ok(())
}

#[test]
fn duplicate_heavy_corpora_stay_exact() {
    // Hashes drawn from an 8-value alphabet: floods MIH buckets and forces
    // the BK-tree fallback, which must not change any answer.
    let gen = |g: &mut Gen| (g.vec(1..80, |g| g.below(8)), g.below(8), g.below(10) as u32);
    check(
        "duplicate_heavy_corpora_stay_exact",
        160,
        gen,
        duplicate_heavy_case,
    );
}

/// A recorded failure of `duplicate_heavy_corpora_stay_exact`, kept as a
/// fixed case.
#[test]
fn duplicate_heavy_corpora_stay_exact_on_two_zero_hashes() {
    duplicate_heavy_case((vec![0, 0], 0, 0)).unwrap();
}
