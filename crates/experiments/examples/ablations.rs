//! Ablations (DESIGN.md §13): what each design choice buys, in accuracy
//! and in cost.
//!
//! ```sh
//! cargo run --release -p squatphi-experiments --example ablations
//! ```
//!
//! * **OCR features on/off** — the paper's key novelty. Without the OCR
//!   channel, string-obfuscated phishing (brand swapped for a homoglyph
//!   twin or baked into a logo image) loses its brand evidence entirely;
//!   we report both the brand-keyword recovery rate and the classifier's
//!   recall on the string-obfuscated subset,
//! * **random-forest size** — AUC/accuracy as a function of tree count,
//! * **squat strategy** — pre-generating every candidate per brand (the
//!   DNSTwist approach) vs the per-record probing detector: build time
//!   over 50 brands and the cost of one classify,
//! * **crawl workers** — `crawl_all` wall time at 1, 4 and 16 workers.

use squatphi::train::forest_config;
use squatphi::FeatureExtractor;
use squatphi_crawler::{crawl_all, CrawlConfig, InProcessTransport};
use squatphi_domain::DomainName;
use squatphi_ml::{Classifier, Dataset, Metrics, RandomForest, RocCurve};
use squatphi_nlp::{remove_stopwords, tokenize, SparseVec};
use squatphi_squat::gen::GenBudget;
use squatphi_squat::pregen::PregeneratedDetector;
use squatphi_squat::{Brand, BrandRegistry, SquatDetector, SquatType};
use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
use squatphi_web::{pages, WebWorld, WorldConfig};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let registry = BrandRegistry::with_size(120);
    let fx = FeatureExtractor::new(&registry);

    // Positives: half plain, half string-obfuscated. Negatives: the
    // benign page families *without* the brand-operated mirror shells
    // (this ablation isolates obfuscation robustness, not operator
    // identity).
    let mut plain_pos = Vec::new();
    let mut evasive_pos = Vec::new();
    let mut negatives = Vec::new();
    for (i, brand) in registry.brands().iter().enumerate() {
        for k in 0..2u64 {
            let seed = i as u64 * 2 + k;
            plain_pos.push(phishing(brand, false, seed));
            evasive_pos.push(phishing(brand, true, seed));
            negatives.push(pages::benign_page(&format!("n{i}-{k}.com"), seed));
            negatives.push(pages::benign_login_page(
                &format!("l{i}-{k}.com"),
                Some(&brand.label),
                seed,
            ));
            negatives.push(pages::confusing_benign_page(
                &format!("c{i}-{k}.com"),
                Some(&brand.label),
                (seed % 4) * 12, // survey / donate variants only
            ));
        }
    }
    println!(
        "ablation corpus: {} plain + {} string-obfuscated phishing, {} benign\n",
        plain_pos.len(),
        evasive_pos.len(),
        negatives.len()
    );

    for ocr_on in [true, false] {
        let embed = |html: &str| {
            if ocr_on {
                fx.extract(html)
            } else {
                lexical_only(&fx, html)
            }
        };
        // Brand-keyword recovery on the evasive positives.
        let mut recovered = 0usize;
        for (i, html) in evasive_pos.iter().enumerate() {
            let brand = registry.get((i / 2) % registry.len()).expect("brand");
            let v = embed(html);
            if fx
                .space()
                .keyword(&brand.label)
                .map(|d| v.get(d) > 0.0)
                .unwrap_or(false)
            {
                recovered += 1;
            }
        }
        // Classifier trained on the mixed corpus, recall on the evasive
        // subset + overall metrics.
        let mut data = Dataset::new(fx.dim());
        let mut evasive_idx = Vec::new();
        for html in plain_pos.iter() {
            data.push(embed(html), true);
        }
        for html in evasive_pos.iter() {
            evasive_idx.push(data.len());
            data.push(embed(html), true);
        }
        for html in negatives.iter() {
            data.push(embed(html), false);
        }
        let folds = data.stratified_folds(5, 3);
        let mut scored = Vec::new();
        let mut evasive_scored = Vec::new();
        for fold in 0..5 {
            let (train, _) = data.split_fold(&folds, fold);
            let mut rf = RandomForest::new(forest_config(3));
            rf.fit(&train);
            for (i, &f) in folds.iter().enumerate().take(data.len()) {
                if f == fold {
                    let s = rf.score(data.x(i));
                    scored.push((s, data.y(i)));
                    if evasive_idx.contains(&i) {
                        evasive_scored.push((s, true));
                    }
                }
            }
        }
        let m = Metrics::from_scores(&scored, 0.5);
        let evasive_recall = evasive_scored.iter().filter(|(s, _)| *s >= 0.5).count() as f64
            / evasive_scored.len().max(1) as f64;
        // SquatPhi detects squatting phishing *on a brand*: a detection
        // without brand-impersonation evidence does not survive the
        // verification step. Gate the evasive-subset recall on the brand
        // keyword being present in the feature vector.
        let mut gated = 0usize;
        let mut full_model = RandomForest::new(forest_config(3));
        full_model.fit(&data);
        for (i, html) in evasive_pos.iter().enumerate() {
            let brand = registry.get((i / 2) % registry.len()).expect("brand");
            let v = embed(html);
            let brand_ok = fx
                .space()
                .keyword(&brand.label)
                .map(|d| v.get(d) > 0.0)
                .unwrap_or(false);
            if full_model.score(&v) >= 0.5 && brand_ok {
                gated += 1;
            }
        }
        let auc = RocCurve::from_scores(&scored).auc();
        println!(
            "OCR {}  brand-keyword recovery on obfuscated pages: {:5.1}%   \
             recall on obfuscated subset: {:5.1}% raw, {:5.1}% with brand-evidence gate   \
             overall AUC {:.3} FP {:.3} FN {:.3}",
            if ocr_on { "ON " } else { "OFF" },
            recovered as f64 * 100.0 / evasive_pos.len() as f64,
            evasive_recall * 100.0,
            gated as f64 * 100.0 / evasive_pos.len() as f64,
            auc,
            m.fpr,
            m.fnr,
        );
    }

    // --- adversarial-noise sweep (paper §5.1 robustness discussion) ------------
    println!("\nadversarial pixel noise vs OCR keyword recovery:");
    {
        use squatphi_html::parse;
        use squatphi_ocr::attack::{recovery_rate, NoiseBudget};
        use squatphi_ocr::OcrConfig;
        use squatphi_render::{render_page, RenderOptions};
        let brand = registry.by_label("paypal").expect("paypal");
        let html = pages::brand_login_page(brand);
        let bmp = render_page(&parse(&html), &RenderOptions::default());
        let cfg = OcrConfig {
            char_error_rate: 0.0,
            ..OcrConfig::default()
        };
        for (name, budget) in [
            (
                "clean      ",
                NoiseBudget {
                    density: 0.0,
                    amplitude: 0,
                },
            ),
            ("subtle     ", NoiseBudget::subtle()),
            ("moderate   ", NoiseBudget::moderate()),
            ("heavy      ", NoiseBudget::heavy()),
        ] {
            let mut total = 0.0;
            for seed in 0..5 {
                total += recovery_rate(&bmp, &["paypal", "password", "email"], budget, seed, &cfg);
            }
            println!(
                "  {name} (density {:>4.0}%, amplitude {:>3})  keyword recovery {:>5.1}%",
                budget.density * 100.0,
                budget.amplitude,
                total / 5.0 * 100.0
            );
        }
        println!(
            "  (the paper's argument: budgets that defeat OCR also destroy the page's legitimacy)"
        );
    }

    // --- reinforcement round (paper §6.1 future work) -------------------------
    println!("\nreinforcement round (feed confirmed detections back into training):");
    {
        use squatphi::reinforce::{reinforce, wild_error_count};
        use squatphi::{RunOptions, SimConfig, SquatPhi};
        let config = SimConfig::tiny();
        let result =
            SquatPhi::try_run(&config, &RunOptions::default()).expect("tiny pipeline runs clean");
        let top8 = result.feed.top8(&result.registry);
        let base_pages: Vec<(&str, bool)> = top8
            .iter()
            .map(|e| (e.html.as_str(), e.still_phishing))
            .collect();
        let base = result.extractor.build_dataset(&base_pages, config.threads);
        let before = wild_error_count(&result, &result.extractor, &result.model, config.threads);
        let out = reinforce(&result, &result.extractor, &base, config.threads, 5);
        let after = wild_error_count(&result, &result.extractor, &out.model, config.threads);
        println!(
            "  in-the-wild classification errors: {before} -> {after} \
             (+{} confirmed positives, +{} rejected negatives fed back)",
            out.added_positives, out.added_negatives
        );
    }

    // --- forest size sweep ---------------------------------------------------
    println!("\nrandom-forest size sweep (full features):");
    let mut data = Dataset::new(fx.dim());
    for html in plain_pos.iter().chain(&evasive_pos) {
        data.push(fx.extract(html), true);
    }
    for html in &negatives {
        data.push(fx.extract(html), false);
    }
    for trees in [5usize, 15, 30, 60, 120] {
        let scored = squatphi_ml::cross_validate(
            || {
                let mut cfg = forest_config(7);
                cfg.trees = trees;
                RandomForest::new(cfg)
            },
            &data,
            5,
            7,
        );
        let m = Metrics::from_scores(&scored, 0.5);
        println!(
            "  {trees:>4} trees  AUC {:.3}  ACC {:.3}",
            m.auc, m.accuracy
        );
    }

    strategy_cost();
    crawl_workers_cost();
}

/// Mean wall time of one call of `f` over `rounds` calls: the costs
/// below are well under a millisecond, too short to time once.
fn per_call<T>(rounds: u32, mut f: impl FnMut() -> T) -> Duration {
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(f());
    }
    t.elapsed() / rounds
}

/// Pre-generating every candidate (DNSTwist's strategy) against the
/// probing detector: the build dominates; a classify is one hash lookup
/// for the first and ~O(len) fingerprint probes for the second.
fn strategy_cost() {
    println!("\nsquat strategy over 50 brands (build, then classify one hit + one miss):");
    let registry = BrandRegistry::with_size(50);
    let hit = DomainName::parse("facebook-account.com").expect("valid");
    let miss = DomainName::parse("winterpillow.net").expect("valid");

    let pregen = PregeneratedDetector::build(&registry, GenBudget::default());
    let pregen_build = per_call(5, || {
        PregeneratedDetector::build(&registry, GenBudget::default())
    });
    let pregen_pair = per_call(100_000, || {
        (
            pregen.classify(black_box(&hit)),
            pregen.classify(black_box(&miss)),
        )
    });
    let probing = SquatDetector::new(&registry);
    let probing_build = per_call(100, || SquatDetector::new(&registry));
    let probing_pair = per_call(100_000, || {
        (
            probing.classify(black_box(&hit)),
            probing.classify(black_box(&miss)),
        )
    });

    println!(
        "  pre-generated  build {:>7.2} ms ({} candidates)  classify {:>4} ns",
        pregen_build.as_secs_f64() * 1e3,
        pregen.candidate_count(),
        pregen_pair.as_nanos()
    );
    println!(
        "  probing        build {:>7.2} ms  classify {:>4} ns",
        probing_build.as_secs_f64() * 1e3,
        probing_pair.as_nanos()
    );
}

/// `crawl_all` over 600 combo squats of 20 brands on the in-process
/// transport at three pool widths.
fn crawl_workers_cost() {
    println!("\ncrawl workers (in-process transport):");
    let registry = BrandRegistry::with_size(20);
    let mut squats = Vec::new();
    for (i, brand) in registry.brands().iter().enumerate() {
        for j in 0..30 {
            squats.push((
                format!("{}-w{j}.com", brand.label),
                i,
                SquatType::Combo,
                Ipv4Addr::new(198, 51, i as u8, j as u8),
            ));
        }
    }
    let world = Arc::new(WebWorld::build(
        &squats,
        &registry,
        &WorldConfig {
            phishing_domains: 60,
            seed: 5,
            ..WorldConfig::default()
        },
    ));
    let transport = InProcessTransport::new(world);
    let jobs: Vec<_> = squats
        .iter()
        .map(|(d, b, t, _)| (d.clone(), *b, *t))
        .collect();
    for workers in [1usize, 4, 16] {
        let cfg = CrawlConfig::builder()
            .workers(workers)
            .build()
            .expect("worker counts are nonzero");
        let crawl = per_call(20, || crawl_all(&jobs, &registry, &transport, &cfg).0.len());
        println!(
            "  {workers:>3} workers  {:>6.2} ms per crawl of {} domains",
            crawl.as_secs_f64() * 1e3,
            jobs.len()
        );
    }
}

fn phishing(brand: &Brand, evasive: bool, seed: u64) -> String {
    let profile = PhishingProfile {
        brand: brand.id,
        scam: ScamKind::FakeLogin,
        layout_obfuscation: (seed % 3) as u8,
        string_obfuscation: evasive,
        code_obfuscation: seed % 8 < 3,
        cloaking: Cloaking::None,
        lifetime: LifetimePattern::Stable,
    };
    // Avoid the two-step branch (seed % 16 == 7) so recall is measured on
    // full login pages only.
    let page_seed = seed * 16 + usize::from(evasive) as u64;
    pages::phishing_page(
        brand,
        &profile,
        &format!("{}-x.com", brand.label),
        page_seed,
    )
}

/// Lexical + form channels only — the OCR-off arm.
fn lexical_only(fx: &FeatureExtractor, html: &str) -> SparseVec {
    let doc = squatphi_html::parse(html);
    let mut v = SparseVec::new();
    let text = squatphi_html::extract::extract_text(&doc);
    for t in remove_stopwords(tokenize(&text.joined_lower())) {
        if let Some(i) = fx.space().keyword(&t) {
            v.add(i, 1.0);
        }
    }
    let forms = squatphi_html::extract::extract_forms(&doc);
    let mut pw = 0.0;
    for f in &forms {
        for ty in &f.input_types {
            if ty == "password" {
                pw += 1.0;
            }
            if let Some(i) = fx.space().keyword(ty) {
                v.add(i, 1.0);
            }
        }
        for s in f
            .placeholders
            .iter()
            .chain(&f.submit_texts)
            .chain(&f.input_names)
        {
            for t in tokenize(s) {
                if let Some(i) = fx.space().keyword(&t) {
                    v.add(i, 1.0);
                }
            }
        }
    }
    if !forms.is_empty() {
        v.add(
            fx.space().numeric("form_count").expect("dim"),
            forms.len() as f64,
        );
    }
    if pw > 0.0 {
        v.add(fx.space().numeric("password_inputs").expect("dim"), pw);
    }
    v
}
