//! Crawl-engine benchmarks: the worker-pool engine over the plain
//! in-process transport, the zero-fault middleware stack (what the
//! robustness layers cost), and a chaos plan (what fault handling
//! costs). The crawl stage as a user runs it is measured by the sysbench
//! `repro_batch` and `watch_*` workloads (`sysbench/README.md`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use squatphi_crawler::{
    crawl_all, CircuitBreakerPolicy, CrawlConfig, DeadlinePolicy, FaultPlan, InProcessTransport,
    RetryPolicy, TransportStack,
};
use squatphi_squat::{BrandRegistry, SquatType};
use squatphi_web::{WebWorld, WorldConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;

type Jobs = Vec<(String, usize, SquatType)>;

fn workload() -> (Jobs, BrandRegistry, Arc<WebWorld>) {
    let registry = BrandRegistry::with_size(16);
    let mut squats = Vec::new();
    for (i, b) in registry.brands().iter().enumerate() {
        for j in 0..25 {
            squats.push((
                format!("{}-sq{}.com", b.label, j),
                i,
                SquatType::Combo,
                Ipv4Addr::new(203, 0, (i % 200) as u8, j as u8),
            ));
        }
    }
    let cfg = WorldConfig {
        phishing_domains: 40,
        seed: 1,
        ..WorldConfig::default()
    };
    let world = Arc::new(WebWorld::build(&squats, &registry, &cfg));
    let jobs = squats
        .iter()
        .map(|(d, b, t, _)| (d.clone(), *b, *t))
        .collect();
    (jobs, registry, world)
}

fn cfg(workers: usize) -> CrawlConfig {
    CrawlConfig::builder()
        .workers(workers)
        .build()
        .expect("bench worker counts are nonzero")
}

fn bench_crawl(c: &mut Criterion) {
    let (jobs, registry, world) = workload();

    let mut group = c.benchmark_group("crawl/400_domains");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));

    for workers in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("plain", workers),
            &workers,
            |b, &workers| {
                let transport = InProcessTransport::new(world.clone());
                b.iter(|| {
                    let (records, _) = crawl_all(&jobs, &registry, &transport, &cfg(workers));
                    black_box(records.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stack_zero_fault", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    // The stack is rebuilt per iteration: breaker and
                    // chaos state are per-crawl, like in production use.
                    let stack = TransportStack::new(InProcessTransport::new(world.clone()))
                        .chaos(FaultPlan::none())
                        .retry(RetryPolicy::default())
                        .breaker(CircuitBreakerPolicy::default())
                        .deadline(DeadlinePolicy::default())
                        .build();
                    let (records, _) = crawl_all(&jobs, &registry, &stack, &cfg(workers));
                    black_box(records.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stack_chaos_permille_100", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let stack = TransportStack::new(InProcessTransport::new(world.clone()))
                        .chaos(FaultPlan::fail_permille(100).with_seed(7))
                        .retry(RetryPolicy::default())
                        .breaker(CircuitBreakerPolicy::default())
                        .deadline(DeadlinePolicy::default())
                        .build();
                    let (records, stats) = crawl_all(&jobs, &registry, &stack, &cfg(workers));
                    black_box((records.len(), stats.transport.injected_total()))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_crawl);
criterion_main!(benches);
