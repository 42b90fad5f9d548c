//! Cache transparency: the content-addressed analysis cache may only
//! change speed and the hit/miss counters, never a feature vector, a
//! score bit, a detection, or an image hash. The pipeline always runs
//! cached; the reference is [`FeatureExtractor::uncached`] — the full
//! parse/render/OCR derivation — over every page the run crawled.

use squatphi::evasion;
use squatphi::features::FeatureExtractor;
use squatphi::{RunOptions, SimConfig, SquatPhi};
use squatphi_dnsdb::SnapshotConfig;
use squatphi_feeds::FeedConfig;
use squatphi_ml::Classifier;
use squatphi_web::{Device, WorldConfig};
use std::collections::HashMap;

/// Smaller than `SimConfig::tiny()` — every crawled page is re-derived
/// without the cache.
fn micro() -> SimConfig {
    SimConfig {
        snapshot: SnapshotConfig {
            benign_records: 600,
            squatting_records: 250,
            subdomain_fraction: 0.2,
            seed: 11,
        },
        world: WorldConfig {
            phishing_domains: 40,
            seed: 12,
            ..WorldConfig::default()
        },
        feed: FeedConfig {
            total_urls: 250,
            seed: 13,
        },
        brands: 30,
        threads: 4,
        sampled_benign: 60,
        cv_folds: 3,
        seed: 14,
    }
}

#[test]
fn cache_is_invisible_in_every_pipeline_output() {
    let run = SquatPhi::try_run(&micro(), &RunOptions::default()).expect("pipeline runs clean");
    let cached = &run.extractor;
    let uncached = FeatureExtractor::uncached(&run.registry);

    // Every crawled page, both device profiles: feature vector, score
    // bits and image hash agree between the two derivations.
    let mut scores: HashMap<(&str, Device), u64> = HashMap::new();
    for record in &run.crawl {
        for (device, capture) in [(Device::Web, &record.web), (Device::Mobile, &record.mobile)] {
            let Some(capture) = capture.as_ref().filter(|c| !c.html.is_empty()) else {
                continue;
            };
            let (a, b) = (
                cached.extract(&capture.html),
                uncached.extract(&capture.html),
            );
            assert_eq!(a, b, "feature vector diverged for {}", record.domain);
            let score = run.model.score(&b).to_bits();
            assert_eq!(run.model.score(&a).to_bits(), score);
            assert_eq!(
                cached.analyzer().analyze(&capture.html).image_hash,
                uncached.analyzer().analyze(&capture.html).image_hash,
                "image hash diverged for {}",
                record.domain
            );
            scores.insert((&record.domain, device), score);
        }
    }
    assert!(!scores.is_empty(), "the run crawled no live page");

    // Every detection the cached run reported carries exactly the score
    // the uncached derivation gives its page.
    let detections = || run.web_detections.iter().chain(&run.mobile_detections);
    assert!(detections().count() > 0, "the run detected nothing");
    for d in detections() {
        assert_eq!(
            scores.get(&(d.domain.as_str(), d.device)),
            Some(&d.score.to_bits()),
            "detection score of {} is not the uncached score",
            d.domain
        );
    }

    // Every feed page (the training side) gets the same feature vector.
    for e in &run.feed.entries {
        assert_eq!(
            cached.extract(&e.html),
            uncached.extract(&e.html),
            "feed-page feature vector diverged for {}",
            e.host
        );
    }

    // Evasion measurements (the Fig 8/9 and Table 6/11 substrate) agree
    // artifact-for-artifact across both analyzers.
    let brand = run.registry.brands().first().expect("registry non-empty");
    let brand_page = run.world.brand_page(brand.id).expect("brand page exists");
    for e in run.feed.entries.iter().take(20) {
        let a = evasion::measure(cached.analyzer(), &e.html, brand_page, &brand.label);
        let b = evasion::measure(uncached.analyzer(), &e.html, brand_page, &brand.label);
        assert_eq!(a, b, "evasion measurement diverged for {}", e.host);
    }

    // Metrics shape: the cached run reconciles with real hits (the two
    // device passes share template captures); the uncached analyzer
    // counts every page as a miss.
    let on = &run.analysis;
    let off = uncached.analyzer().metrics();
    assert!(on.reconciles() && off.reconciles());
    assert!(on.cache_hits > 0, "cached run never hit");
    assert!(on.cache_misses < on.pages, "cache saved no derivations");
    assert_eq!(off.cache_hits, 0, "uncached analyzer claims hits");
    assert_eq!(off.pages, off.cache_misses);
}
