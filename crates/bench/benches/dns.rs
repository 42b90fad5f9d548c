//! Snapshot-scan and snapshot-generation throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use squatphi_dnsdb::{scan, synth, SnapshotConfig};
use squatphi_squat::{BrandRegistry, SquatDetector};

fn bench_scan(c: &mut Criterion) {
    let registry = BrandRegistry::paper();
    let detector = SquatDetector::new(&registry);
    let cfg = SnapshotConfig {
        benign_records: 50_000,
        squatting_records: 200,
        subdomain_fraction: 0.25,
        seed: 1,
    };
    let (store, _) = synth::generate(&cfg, &registry);

    let mut group = c.benchmark_group("scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements(store.len() as u64));
    group.bench_function("50k_records_1_thread", |b| {
        b.iter(|| black_box(scan(&store, &registry, &detector, 1)).total_matches())
    });
    group.bench_function("50k_records_8_threads", |b| {
        b.iter(|| black_box(scan(&store, &registry, &detector, 8)).total_matches())
    });
    group.finish();
}

fn bench_snapshot_generation(c: &mut Criterion) {
    let registry = BrandRegistry::with_size(100);
    let cfg = SnapshotConfig {
        benign_records: 20_000,
        squatting_records: 500,
        subdomain_fraction: 0.25,
        seed: 2,
    };
    let mut group = c.benchmark_group("synth");
    group.sample_size(10);
    group.throughput(Throughput::Elements(20_500));
    group.bench_function("generate_20k_records", |b| {
        b.iter(|| black_box(synth::generate(&cfg, &registry)).0.len())
    });
    group.finish();
}

criterion_group!(benches, bench_scan, bench_snapshot_generation);
criterion_main!(benches);
