//! Debug harness: find feature dimensions that (almost) perfectly
//! separate the ground-truth classes — such dimensions mean the page
//! generators leak template-unique vocabulary.

use squatphi::{FeatureExtractor, SimConfig};
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_squat::BrandRegistry;

fn main() {
    let config = SimConfig::tiny();
    let registry = BrandRegistry::with_size(config.brands);
    let feed = GroundTruthFeed::generate(
        &registry,
        &FeedConfig {
            total_urls: 700,
            seed: 13,
        },
    );
    let fx = FeatureExtractor::new(&registry);

    let top8 = feed.top8(&registry);
    let pages: Vec<(&str, bool)> = top8
        .iter()
        .map(|e| (e.html.as_str(), e.still_phishing))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let data = fx.build_dataset(&pages, threads);
    println!(
        "dataset: {} samples, {} positive",
        data.len(),
        data.positives()
    );

    let dim = data.dim();
    for d in 0..dim {
        let mut pos_with = 0usize;
        let mut neg_with = 0usize;
        let (mut pos, mut neg) = (0usize, 0usize);
        for (x, y) in data.iter() {
            let has = x.get(d) > 0.0;
            if y {
                pos += 1;
                pos_with += usize::from(has);
            } else {
                neg += 1;
                neg_with += usize::from(has);
            }
        }
        let p_rate = pos_with as f64 / pos.max(1) as f64;
        let n_rate = neg_with as f64 / neg.max(1) as f64;
        if (p_rate - n_rate).abs() > 0.75 {
            // Recover the dimension's name.
            let name = name_of(&fx, d);
            println!("dim {d:4} {name:20} pos {p_rate:.2} neg {n_rate:.2}");
        }
    }
}

fn name_of(fx: &FeatureExtractor, d: usize) -> String {
    // Brute-force reverse lookup over a crude token universe.
    for w in squatphi_nlp::spell::BASE_DICTIONARY {
        if fx.space().keyword(w) == Some(d) {
            return (*w).to_string();
        }
    }
    let reg = BrandRegistry::paper();
    for b in reg.brands() {
        if fx.space().keyword(&b.label) == Some(d) {
            return format!("brand:{}", b.label);
        }
    }
    for n in [
        "form_count",
        "password_inputs",
        "text_inputs",
        "submit_controls",
        "js_obfuscated",
    ] {
        if fx.space().numeric(n) == Some(d) {
            return format!("num:{n}");
        }
    }
    format!("keyword#{d}")
}
