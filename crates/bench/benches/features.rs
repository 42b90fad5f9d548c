//! Feature-extraction benchmarks over the page-analysis layer: cold
//! (cache disabled — every page runs parse/render/OCR) vs warm (the
//! content-addressed cache pre-populated, so extraction is hash probe +
//! embed). The workload is template-heavy like a real squatting
//! population: many captures, few distinct page bodies. (Sixteen pages
//! time little more than the clock; the measured numbers for this path
//! are `sysbench`'s `page_audit` workload.)

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use squatphi::FeatureExtractor;
use squatphi_squat::BrandRegistry;
use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
use squatphi_web::pages;

/// Sixteen distinct page bodies: phishing variants, brand pages, benign
/// and parked templates.
fn corpus(registry: &BrandRegistry) -> Vec<String> {
    let mut out = Vec::new();
    for (i, brand) in registry.brands().iter().take(4).enumerate() {
        out.push(pages::brand_login_page(brand));
        let profile = PhishingProfile {
            brand: brand.id,
            scam: ScamKind::FakeLogin,
            layout_obfuscation: (i % 4) as u8,
            string_obfuscation: i % 2 == 0,
            code_obfuscation: i % 3 == 0,
            cloaking: Cloaking::None,
            lifetime: LifetimePattern::Stable,
        };
        out.push(pages::phishing_page(
            brand,
            &profile,
            &format!("{}-pay.com", brand.label),
            i as u64,
        ));
        out.push(pages::benign_page(
            &format!("shop{i}.example.com"),
            i as u64,
        ));
        out.push(pages::parked_page(&format!("parked{i}.example.com")));
    }
    out
}

/// A batch of `n` captures cycled over the distinct corpus.
fn batch(corpus: &[String], n: usize) -> Vec<&str> {
    (0..n).map(|i| corpus[i % corpus.len()].as_str()).collect()
}

fn bench_features(c: &mut Criterion) {
    let registry = BrandRegistry::with_size(16);
    let corpus = corpus(&registry);

    let mut group = c.benchmark_group("features/extract_batch");
    group.sample_size(10);

    for &size in &[1usize, 64, 512] {
        let htmls = batch(&corpus, size);
        let threads = if size == 1 { 1 } else { 4 };
        group.throughput(Throughput::Elements(size as u64));

        group.bench_with_input(BenchmarkId::new("cold", size), &htmls, |b, htmls| {
            let fx = FeatureExtractor::uncached(&registry);
            b.iter(|| black_box(fx.extract_batch(htmls, threads).len()))
        });

        group.bench_with_input(BenchmarkId::new("warm", size), &htmls, |b, htmls| {
            let fx = FeatureExtractor::new(&registry);
            fx.extract_batch(htmls, threads); // pre-populate the cache
            b.iter(|| black_box(fx.extract_batch(htmls, threads).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
