//! The visual-similarity experiments (Fig 8/9, Tables 6/11) measure
//! layout distance with `evasion::layout_distances`, a plain Hamming map.
//! Its reference is the preserved `imghash::index::linear` oracle at
//! radius 64 (the whole cube) over the run's own pages, and two identical
//! runs must print byte-identical reports. Mirrors the analysis-cache
//! transparency gate in `crates/core/tests/`.

use squatphi::evasion::layout_distances;
use squatphi::pipeline::PipelineResult;
use squatphi::{RunOptions, SimConfig, SquatPhi};
use squatphi_dnsdb::SnapshotConfig;
use squatphi_experiments::experiments::run_experiment;
use squatphi_feeds::FeedConfig;
use squatphi_imghash::index::linear;
use squatphi_web::WorldConfig;

/// Smaller than `SimConfig::tiny()` — this file runs the pipeline three
/// times.
fn micro() -> SimConfig {
    SimConfig {
        snapshot: SnapshotConfig {
            benign_records: 500,
            squatting_records: 220,
            subdomain_fraction: 0.2,
            seed: 21,
        },
        world: WorldConfig {
            phishing_domains: 36,
            seed: 22,
            ..WorldConfig::default()
        },
        feed: FeedConfig {
            total_urls: 220,
            seed: 23,
        },
        brands: 25,
        threads: 4,
        sampled_benign: 50,
        cv_folds: 3,
        seed: 24,
    }
}

/// The experiments built on layout distances.
const VISUAL_EXPERIMENTS: &[&str] = &["fig8", "fig9", "table6", "table11"];

fn reports(result: &PipelineResult) -> Vec<(String, String)> {
    VISUAL_EXPERIMENTS
        .iter()
        .map(|id| {
            (
                id.to_string(),
                run_experiment(id, result).unwrap_or_else(|| panic!("experiment {id} missing")),
            )
        })
        .collect()
}

#[test]
fn layout_distances_match_the_linear_oracle_on_the_runs_pages() {
    let run = SquatPhi::try_run(&micro(), &RunOptions::default()).expect("pipeline runs clean");
    let analyzer = run.extractor.analyzer();
    let page_hashes: Vec<_> = run
        .feed
        .entries
        .iter()
        .map(|e| analyzer.analyze(&e.html).image_hash)
        .collect();
    assert!(!page_hashes.is_empty(), "the feed has no pages");
    // Each brand page against the whole feed: Fig 9's and Table 6/11's
    // comparisons are subsets of these.
    for brand in run.registry.brands() {
        let Some(brand_page) = run.world.brand_page(brand.id) else {
            continue;
        };
        let brand_hash = analyzer.analyze(brand_page).image_hash;
        let oracle: Vec<u32> = linear::within(&page_hashes, &brand_hash, 64)
            .into_iter()
            .map(|n| n.distance)
            .collect();
        assert_eq!(
            layout_distances(&page_hashes, brand_hash),
            oracle,
            "layout distances to {} diverged from the linear oracle",
            brand.label
        );
    }
    for (id, report) in reports(&run) {
        assert!(!report.is_empty(), "experiment {id} printed nothing");
    }
}

#[test]
fn visual_experiments_are_two_run_deterministic() {
    let a = SquatPhi::try_run(&micro(), &RunOptions::default()).expect("first run");
    let b = SquatPhi::try_run(&micro(), &RunOptions::default()).expect("second run");
    assert_eq!(
        reports(&a),
        reports(&b),
        "identical runs printed different reports"
    );
}
