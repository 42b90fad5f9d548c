//! pHash NN-index benchmarks (the visual-similarity lookup hot path).
//!
//! `cargo bench --bench phash` compares radius and k-NN lookups through
//! [`HashIndex`] (multi-index hashing + BK fallback) against the preserved
//! [`linear`] oracle on a 65k-hash seeded corpus, plus the one-off build
//! cost. The same lookups at the paper's 1M-hash scale are the sysbench
//! `visual_lookup` workload (`sysbench/README.md`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::prelude::*;
use squatphi_imghash::index::{linear, HashIndex};
use squatphi_imghash::ImageHash;

const CORPUS: usize = 65_536;
const QUERIES: usize = 64;

/// Seeded corpus: 80% uniform hashes, 20% clustered within a few flips of
/// a small center set (the realistic screenshot-hash shape: most pages
/// unrelated, phishing variants clustered near their brand).
fn corpus() -> Vec<ImageHash> {
    let mut rng = StdRng::seed_from_u64(0xbe7c);
    let centers: Vec<u64> = (0..64).map(|_| rng.gen()).collect();
    (0..CORPUS)
        .map(|i| {
            if i % 5 == 0 {
                let mut h = centers[rng.gen_range(0..centers.len())];
                for _ in 0..rng.gen_range(0..=8usize) {
                    h ^= 1u64 << rng.gen_range(0..64u32);
                }
                ImageHash(h)
            } else {
                ImageHash(rng.gen())
            }
        })
        .collect()
}

/// Half corpus members perturbed by a few flips, half random misses.
fn queries(corpus: &[ImageHash]) -> Vec<ImageHash> {
    let mut rng = StdRng::seed_from_u64(0x9e7);
    (0..QUERIES)
        .map(|i| {
            if i % 2 == 0 {
                let mut h = corpus[rng.gen_range(0..corpus.len())].0;
                for _ in 0..rng.gen_range(0..=6usize) {
                    h ^= 1u64 << rng.gen_range(0..64u32);
                }
                ImageHash(h)
            } else {
                ImageHash(rng.gen())
            }
        })
        .collect()
}

fn bench_within(c: &mut Criterion) {
    let corpus = corpus();
    let queries = queries(&corpus);
    let index = HashIndex::from_hashes(corpus.iter().copied());

    for radius in [2u32, 8] {
        let mut group = c.benchmark_group(format!("phash/within_r{radius}_65536"));
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_with_input(BenchmarkId::new("index", radius), &radius, |b, &r| {
            b.iter(|| {
                let mut found = 0usize;
                for q in &queries {
                    found += index.within(black_box(q), r).len();
                }
                found
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", radius), &radius, |b, &r| {
            b.iter(|| {
                let mut found = 0usize;
                for q in &queries {
                    found += linear::within(&corpus, black_box(q), r).len();
                }
                found
            })
        });
        group.finish();
    }
}

fn bench_nearest(c: &mut Criterion) {
    let corpus = corpus();
    let queries = queries(&corpus);
    let index = HashIndex::from_hashes(corpus.iter().copied());

    let mut group = c.benchmark_group("phash/nearest_k5_65536");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("index", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for q in &queries {
                found += index.nearest(black_box(q), 5).len();
            }
            found
        })
    });
    group.bench_function("linear", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for q in &queries {
                found += linear::nearest(&corpus, black_box(q), 5).len();
            }
            found
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let corpus = corpus();
    let mut group = c.benchmark_group("phash/build_65536");
    group.sample_size(10);
    group.throughput(Throughput::Elements(corpus.len() as u64));
    group.bench_function("from_hashes", |b| {
        b.iter(|| black_box(HashIndex::from_hashes(corpus.iter().copied())).len())
    });
    group.finish();
}

criterion_group!(benches, bench_within, bench_nearest, bench_build);
criterion_main!(benches);
