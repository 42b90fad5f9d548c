//! Determinism gates for the NN index: identical inputs must leave
//! byte-identical `phash.index.*` telemetry behind, on both query paths.
//! Counter totals are part of the index's observable contract (the
//! conformance oracle audits them), so bucket traversal order, fallback
//! decisions and probe accounting may not depend on anything but the
//! corpus and the query sequence.

use squatphi_imghash::index::{linear, HashIndex};
use squatphi_imghash::ImageHash;

/// A seeded corpus mixing the MIH fast path (well-spread hashes) with a
/// bucket-flooding run of duplicates that forces the BK-tree fallback.
fn corpus() -> Vec<ImageHash> {
    let mut out: Vec<ImageHash> = (0..600u64)
        .map(|i| ImageHash(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    out.extend(std::iter::repeat_n(ImageHash(0xDEAD_BEEF), 400));
    out
}

/// One full build + query workload; returns the rendered snapshot.
fn run_workload() -> String {
    let index = HashIndex::from_hashes(corpus());
    for i in 0..50u64 {
        let q = ImageHash(i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        index.within(&q, (i % 17) as u32);
        index.nearest(&q, (i % 7) as usize);
    }
    index.within(&ImageHash(0xDEAD_BEEF), 2); // BK fallback
    index.telemetry().snapshot().render()
}

#[test]
fn telemetry_snapshot_is_byte_identical_across_runs() {
    let a = run_workload();
    let b = run_workload();
    assert_eq!(a, b, "two identical workloads rendered different telemetry");
    // The render must actually carry the index scope (not compare two
    // vacuously empty snapshots). Renders are nested JSON, so check the
    // scope keys and every leaf counter name.
    for key in [
        "\"phash\"",
        "\"index\"",
        "\"inserts\"",
        "\"queries\"",
        "\"probes\"",
        "\"bucket_hits\"",
        "\"verified\"",
        "\"pruned\"",
        "\"fallbacks\"",
    ] {
        assert!(a.contains(key), "snapshot render missing {key}:\n{a}");
    }
}

/// splitmix64: a seeded stream with no dependency outside this file.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden stream: a 20k-hash corpus, 80 % uniform and 20 % within
/// 0–8 flips of one of 24 centres, queried by the centres and by 24
/// uniform hashes at every radius 0..=20 and `k` ∈ {1, 5, 17}, then one
/// radius-40 query, which always takes the BK-tree. Every answer must
/// equal `linear`'s; returns the rendered snapshot.
fn golden_stream() -> String {
    let mut state = 2018u64;
    let centres: Vec<u64> = (0..24).map(|_| next(&mut state)).collect();
    let corpus: Vec<ImageHash> = (0..20_000usize)
        .map(|i| {
            if i % 5 == 0 {
                let mut h = centres[next(&mut state) as usize % centres.len()];
                for _ in 0..next(&mut state) % 9 {
                    h ^= 1 << (next(&mut state) % 64);
                }
                ImageHash(h)
            } else {
                ImageHash(next(&mut state))
            }
        })
        .collect();
    let queries: Vec<ImageHash> = centres
        .iter()
        .map(|&c| ImageHash(c))
        .chain((0..24).map(|_| ImageHash(next(&mut state))))
        .collect();
    let index = HashIndex::from_hashes(corpus.iter().copied());
    for q in &queries {
        for radius in 0..=20 {
            assert_eq!(index.within(q, radius), linear::within(&corpus, q, radius));
        }
        for k in [1, 5, 17] {
            assert_eq!(index.nearest(q, k), linear::nearest(&corpus, q, k));
        }
    }
    let q = &queries[0];
    assert_eq!(index.within(q, 40), linear::within(&corpus, q, 40));
    index.telemetry().snapshot().render()
}

/// Rendered by the bucket-per-`Vec` index with an eagerly built BK-tree,
/// before the table became one flat array: the layout may change, the
/// counters may not.
const GOLDEN_SNAPSHOT: &str = r#"{
  "phash": {
    "index": {
      "bucket_hits": 927275,
      "fallbacks": 1,
      "inserts": 20000,
      "probes": 1203018,
      "pruned": 1107416,
      "queries": 1505,
      "verified": 95602
    }
  }
}"#;

#[test]
fn golden_stream_leaves_the_pinned_counters() {
    assert_eq!(golden_stream(), GOLDEN_SNAPSHOT);
}

#[test]
fn workload_counters_reconcile() {
    let index = HashIndex::from_hashes(corpus());
    for i in 0..20u64 {
        index.within(&ImageHash(i * 3), (i % 9) as u32);
    }
    let snap = index.telemetry().snapshot();
    assert_eq!(
        snap.u64_or_zero("phash.index.probes"),
        snap.u64_or_zero("phash.index.verified") + snap.u64_or_zero("phash.index.pruned"),
        "probe ledger out of balance"
    );
    assert_eq!(snap.u64_or_zero("phash.index.inserts"), 1000);
    assert_eq!(snap.u64_or_zero("phash.index.queries"), 20);
}
