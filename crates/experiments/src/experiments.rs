//! One regeneration function per table/figure of the paper's evaluation.
//!
//! Each function prints the same rows/series the paper reports, with the
//! paper's headline value quoted in the title for side-by-side reading.
//! Absolute numbers depend on the simulation scale; the *shape* (who
//! wins, rough factors, crossovers) is the reproduction target.

use crate::report::{f2, pct, series, table};
use squatphi::analysis;
use squatphi::pipeline::PipelineResult;
use squatphi_domain::idna;
use squatphi_feeds::RankBucket;
use squatphi_render::ascii;
use squatphi_squat::gen::{self, GenBudget};
use squatphi_squat::{BrandRegistry, SquatType};
use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
use squatphi_web::world::SNAPSHOT_DATES;
use squatphi_web::{pages, Device, SiteBehavior};

/// Every experiment id, in paper order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1", "fig2", "fig3", "fig4", "table2", "table3", "table4", "fig5", "fig6", "fig7",
    "table5", "fig8", "fig9", "table6", "table7", "fig10", "table8", "table9", "fig11", "fig12",
    "fig13", "table10", "fig14", "fig15", "fig16", "fig17", "table11", "table12", "table13",
];

/// Runs one experiment against a pipeline result, returning its report
/// text. Unknown ids return `None`.
pub fn run_experiment(id: &str, result: &PipelineResult) -> Option<String> {
    Some(match id {
        "table1" => table1(),
        "fig2" => fig2(result),
        "fig3" => fig3(result),
        "fig4" => fig4(result),
        "table2" => table2(result),
        "table3" => table3(result),
        "table4" => table4(result),
        "fig5" => fig5(result),
        "fig6" => fig6(result),
        "fig7" => fig7(result),
        "table5" => table5(result),
        "fig8" => fig8(),
        "fig9" => fig9(result),
        "table6" => table6(result),
        "table7" => table7(result),
        "fig10" => fig10(result),
        "table8" => table8(result),
        "table9" => table9(result),
        "fig11" => fig11(result),
        "fig12" => fig12(result),
        "fig13" => fig13(result),
        "table10" => table10(result),
        "fig14" => fig14(result),
        "fig15" => fig15(result),
        "fig16" => fig16(result),
        "fig17" => fig17(result),
        "table11" => table11(result),
        "table12" => table12(result),
        "table13" => table13(result),
        _ => return None,
    })
}

/// Table 1: example squatting domains per type for `facebook`.
fn table1() -> String {
    let registry = BrandRegistry::with_size(10);
    let fb = registry.by_label("facebook").expect("facebook in registry");
    let budget = GenBudget {
        homograph: 60,
        bits: 10,
        typo: 40,
        combo: 10,
        wrong_tld: 5,
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut per_type = [0usize; 5];
    let mut idn_shown = false;
    for c in gen::generate_all(fb, budget) {
        let idx = type_index(c.squat_type);
        // For homographs, show one ASCII trick and one IDN (the paper's
        // Table 1 has faceb00k.pw and xn--fcebook-8va.com).
        if idx == 0 && per_type[0] == 1 && !idn_shown && !c.domain.is_idn() {
            continue;
        }
        if per_type[idx] >= 2 {
            continue;
        }
        if idx == 0 && c.domain.is_idn() {
            idn_shown = true;
        }
        per_type[idx] += 1;
        let shown = if c.domain.is_idn() {
            format!(
                "{} (punycode: {})",
                idna::to_unicode(c.domain.as_str()),
                c.domain
            )
        } else {
            c.domain.to_string()
        };
        rows.push(vec![shown, c.squat_type.to_string().to_lowercase()]);
    }
    table(
        "Table 1 — example squatting domains for the facebook brand",
        &["Domain", "Type"],
        &rows,
    )
}

fn type_index(t: SquatType) -> usize {
    match t {
        SquatType::Homograph => 0,
        SquatType::Bits => 1,
        SquatType::Typo => 2,
        SquatType::Combo => 3,
        SquatType::WrongTld => 4,
    }
}

/// Figure 2: # of squatting domains per type (paper: 32,646 / 48,097 /
/// 166,152 / 371,354 / 39,414 — combo 56%).
fn fig2(result: &PipelineResult) -> String {
    let paper = [32_646, 48_097, 166_152, 371_354, 39_414];
    let order = [0usize, 1, 2, 3, 4];
    let names = ["Homograph", "Bits", "Typo", "Combo", "WrongTLD"];
    let total: usize = result.scan.by_type.iter().sum();
    let rows: Vec<Vec<String>> = order
        .iter()
        .map(|&i| {
            vec![
                names[i].to_string(),
                result.scan.by_type[i].to_string(),
                pct(result.scan.by_type[i], total),
                paper[i].to_string(),
                pct(paper[i], 657_663),
            ]
        })
        .collect();
    table(
        "Figure 2 — squatting domains per type (measured vs paper)",
        &["Type", "Measured", "Share", "Paper", "PaperShare"],
        &rows,
    )
}

/// Figure 3: accumulated % of squatting domains vs brand rank (paper:
/// top-20 brands own >30%).
fn fig3(result: &PipelineResult) -> String {
    let shares = analysis::accumulated_share(&result.scan.by_brand);
    let picks = [0usize, 4, 9, 19, 49, 99, 199, 399, 699];
    let points: Vec<(String, String)> = picks
        .iter()
        .filter(|&&i| i < shares.len())
        .map(|&i| {
            (
                format!("top {}", i + 1),
                format!("{:.1}%", shares[i] * 100.0),
            )
        })
        .collect();
    let mut s = series(
        "Figure 3 — accumulated share of squatting domains by brand rank",
        "Brands",
        "Accumulated share",
        &points,
    );
    if shares.len() >= 20 {
        s.push_str(&format!(
            "(paper: top-20 brands own >30%; measured: {:.1}%)\n",
            shares[19] * 100.0
        ));
    }
    s
}

/// Figure 4 (table): top-5 brands with the most squatting domains
/// (paper: vice 5.98%, porn 2.76%, bt 2.46%, apple 2.05%, ford 1.85%).
fn fig4(result: &PipelineResult) -> String {
    let total: usize = result.scan.by_brand.iter().sum();
    let mut per_brand: Vec<(usize, usize)> =
        result.scan.by_brand.iter().copied().enumerate().collect();
    per_brand.sort_by_key(|x| std::cmp::Reverse(x.1));
    let rows: Vec<Vec<String>> = per_brand
        .iter()
        .take(5)
        .map(|&(b, n)| {
            vec![
                result
                    .registry
                    .get(b)
                    .map(|br| br.domain.as_str().to_string())
                    .unwrap_or_default(),
                n.to_string(),
                pct(n, total),
            ]
        })
        .collect();
    table(
        "Figure 4 — top-5 brands by squatting domains (paper: vice, porn, bt, apple, ford)",
        &["Brand", "Squatting Domains", "Percent"],
        &rows,
    )
}

/// Table 2: crawl statistics (paper: 362,545 web live, 87.3% no redirect,
/// 1.7% original, 3.0% market, 8.0% other).
fn table2(result: &PipelineResult) -> String {
    let s = &result.crawl_stats;
    let row = |name: &str, live: usize, none: usize, orig: usize, market: usize, other: usize| {
        vec![
            name.to_string(),
            live.to_string(),
            format!("{none} ({})", pct(none, live)),
            format!("{orig} ({})", pct(orig, live)),
            format!("{market} ({})", pct(market, live)),
            format!("{other} ({})", pct(other, live)),
        ]
    };
    table(
        "Table 2 — crawl statistics (paper: 87.3% none / 1.7% original / 3.0% market / 8.0% other)",
        &[
            "Type",
            "Live Domains",
            "No Redirect",
            "To Original",
            "To Market",
            "To Others",
        ],
        &[
            row(
                "Web",
                s.web_live,
                s.web_no_redirect,
                s.web_redirect_original,
                s.web_redirect_market,
                s.web_redirect_other,
            ),
            row(
                "Mobile",
                s.mobile_live,
                s.mobile_no_redirect,
                s.mobile_redirect_original,
                s.mobile_redirect_market,
                s.mobile_redirect_other,
            ),
        ],
    )
}

/// Table 3: top brands redirecting to their original sites.
fn table3(result: &PipelineResult) -> String {
    let mut league = analysis::redirect_league(result);
    league.sort_by(|a, b| {
        let ra = a.2 as f64 / a.1.max(1) as f64;
        let rb = b.2 as f64 / b.1.max(1) as f64;
        rb.partial_cmp(&ra)
            .expect("finite ratios")
            .then(b.2.cmp(&a.2))
    });
    let rows: Vec<Vec<String>> = league
        .iter()
        .filter(|(_, _, orig, ..)| *orig > 0)
        .take(5)
        .map(|(brand, total, orig, market, other)| {
            vec![
                brand.clone(),
                total.to_string(),
                format!("{orig} ({})", pct(*orig, *total)),
                format!("{market} ({})", pct(*market, *total)),
                format!("{other} ({})", pct(*other, *total)),
            ]
        })
        .collect();
    table(
        "Table 3 — top brands redirecting squats to their original sites (paper: Shutterfly, Alliancebank, Rabobank, Priceline, Carfax)",
        &["Brand", "Domains w/ Redirect", "Original", "Market", "Others"],
        &rows,
    )
}

/// Table 4: top brands redirecting to domain marketplaces.
fn table4(result: &PipelineResult) -> String {
    let mut league = analysis::redirect_league(result);
    league.sort_by(|a, b| {
        let ra = a.3 as f64 / a.1.max(1) as f64;
        let rb = b.3 as f64 / b.1.max(1) as f64;
        rb.partial_cmp(&ra)
            .expect("finite ratios")
            .then(b.3.cmp(&a.3))
    });
    let rows: Vec<Vec<String>> = league
        .iter()
        .filter(|(_, _, _, market, _)| *market > 0)
        .take(5)
        .map(|(brand, total, orig, market, other)| {
            vec![
                brand.clone(),
                total.to_string(),
                format!("{orig} ({})", pct(*orig, *total)),
                format!("{market} ({})", pct(*market, *total)),
                format!("{other} ({})", pct(*other, *total)),
            ]
        })
        .collect();
    table(
        "Table 4 — top brands redirecting squats to marketplaces (paper: Zocdoc, Comerica, Verizon, Amazon, Paypal)",
        &["Brand", "Domains w/ Redirect", "Original", "Market", "Others"],
        &rows,
    )
}

/// Figure 5: accumulated % of PhishTank URLs per brand (paper: top-8 =
/// 59.1%).
fn fig5(result: &PipelineResult) -> String {
    let mut per_brand = vec![0usize; result.registry.len()];
    for e in &result.feed.entries {
        per_brand[e.brand] += 1;
    }
    let shares = analysis::accumulated_share(&per_brand);
    let picks = [0usize, 3, 7, 19, 49, 99, 137];
    let points: Vec<(String, String)> = picks
        .iter()
        .filter(|&&i| i < shares.len())
        .map(|&i| {
            (
                format!("top {}", i + 1),
                format!("{:.1}%", shares[i] * 100.0),
            )
        })
        .collect();
    let mut s = series(
        "Figure 5 — accumulated share of ground-truth feed URLs by brand",
        "Brands",
        "Accumulated share",
        &points,
    );
    if shares.len() >= 8 {
        s.push_str(&format!(
            "(paper: top-8 brands = 59.1%; measured: {:.1}%)\n",
            shares[7] * 100.0
        ));
    }
    s
}

/// Figure 6: Alexa-rank buckets of feed URLs (paper: 246 / 1042 / 444 /
/// 274 / 4749 — 70% beyond top-1M).
fn fig6(result: &PipelineResult) -> String {
    let mut buckets = [0usize; 5];
    for e in &result.feed.entries {
        let i = match e.rank {
            RankBucket::Top1K => 0,
            RankBucket::To10K => 1,
            RankBucket::To100K => 2,
            RankBucket::To1M => 3,
            RankBucket::Beyond1M => 4,
        };
        buckets[i] += 1;
    }
    let paper = [246, 1042, 444, 274, 4749];
    let names = ["(0-1000]", "(1000-1e4]", "(1e4-1e5]", "(1e5-1e6]", "1e6+"];
    let rows: Vec<Vec<String>> = (0..5)
        .map(|i| {
            vec![
                names[i].to_string(),
                buckets[i].to_string(),
                paper[i].to_string(),
            ]
        })
        .collect();
    table(
        "Figure 6 — Alexa rank of ground-truth phishing hosts (measured vs paper)",
        &["Bucket", "Measured", "Paper"],
        &rows,
    )
}

/// Figure 7: squatting-type mix inside the feed (paper: 4 homograph / 0
/// bits / 3 typo / 592 combo / 0 wrongTLD / 6,156 none).
fn fig7(result: &PipelineResult) -> String {
    let mut counts = [0usize; 6];
    for e in &result.feed.entries {
        let i = match e.squat_type {
            Some(t) => type_index(t),
            None => 5,
        };
        counts[i] += 1;
    }
    let names = ["Homograph", "Bits", "Typo", "Combo", "WrongTLD", "No"];
    let paper = [4, 0, 3, 592, 0, 6156];
    let rows: Vec<Vec<String>> = (0..6)
        .map(|i| {
            vec![
                names[i].to_string(),
                counts[i].to_string(),
                paper[i].to_string(),
            ]
        })
        .collect();
    table(
        "Figure 7 — squatting domains inside the ground-truth feed (measured vs paper)",
        &["Type", "Measured", "Paper"],
        &rows,
    )
}

/// Table 5: top-8 feed brands with manual-verification results (paper:
/// 1,731 of 4,004 still phishing).
fn table5(result: &PipelineResult) -> String {
    let feed = &result.feed;
    let total = feed.entries.len();
    let mut rows = Vec::new();
    let mut sum_urls = 0usize;
    let mut sum_valid = 0usize;
    for label in squatphi_feeds::GroundTruthFeed::top8_labels() {
        let Some(brand) = result.registry.by_label(label) else {
            continue;
        };
        let entries: Vec<_> = feed
            .entries
            .iter()
            .filter(|e| e.brand == brand.id)
            .collect();
        let valid = entries.iter().filter(|e| e.still_phishing).count();
        sum_urls += entries.len();
        sum_valid += valid;
        rows.push(vec![
            label.to_string(),
            entries.len().to_string(),
            pct(entries.len(), total),
            valid.to_string(),
        ]);
    }
    rows.push(vec![
        "SubTotal".to_string(),
        sum_urls.to_string(),
        pct(sum_urls, total),
        sum_valid.to_string(),
    ]);
    table(
        "Table 5 — top-8 feed brands and still-valid phishing (paper: 4,004 URLs, 1,731 valid)",
        &["Brand", "# of URLs", "Percent", "Valid Phishing"],
        &rows,
    )
}

/// Figure 8: layout-obfuscation example — image-hash distances of
/// increasingly obfuscated paypal phishing pages (paper: 7 / 24 / 38).
fn fig8() -> String {
    let registry = BrandRegistry::with_size(10);
    let brand = registry.by_label("paypal").expect("paypal");
    let original = pages::brand_login_page(brand);
    // Self-contained figure (no pipeline result), so it runs its own
    // analyzer; the four variants below still share its cache.
    let analyzer = squatphi::artifact::PageAnalyzer::new();
    let orig_hash = analyzer.analyze(&original).image_hash;
    let variant_hashes: Vec<_> = (0..4u8)
        .map(|intensity| {
            let profile = PhishingProfile {
                brand: brand.id,
                scam: ScamKind::FakeLogin,
                layout_obfuscation: intensity,
                string_obfuscation: false,
                code_obfuscation: false,
                cloaking: Cloaking::None,
                lifetime: LifetimePattern::Stable,
            };
            let html = pages::phishing_page(brand, &profile, "paypal-cash.com", 8);
            analyzer.analyze(&html).image_hash
        })
        .collect();
    let points: Vec<(String, String)> =
        squatphi::evasion::layout_distances(&variant_hashes, orig_hash)
            .into_iter()
            .enumerate()
            .map(|(intensity, d)| (format!("intensity {intensity}"), d.to_string()))
            .collect();
    let mut s = series(
        "Figure 8 — image-hash distance of paypal phishing variants to the real page",
        "Variant",
        "pHash distance",
        &points,
    );
    s.push_str("(paper's example distances: 7 / 24 / 38; distance grows with obfuscation)\n");
    s
}

/// Figure 9: mean image-hash distance per brand over ground-truth
/// phishing (paper: most brands around 20+).
fn fig9(result: &PipelineResult) -> String {
    let analyzer = result.extractor.analyzer();
    let mut rows = Vec::new();
    for label in squatphi_feeds::GroundTruthFeed::top8_labels() {
        let Some(brand) = result.registry.by_label(label) else {
            continue;
        };
        let brand_page = result.world.brand_page(brand.id).expect("brand page");
        let bh = analyzer.analyze(brand_page).image_hash;
        let page_hashes: Vec<_> = result
            .feed
            .entries
            .iter()
            .filter(|e| e.brand == brand.id && e.still_phishing)
            .take(60)
            .map(|e| analyzer.analyze(&e.html).image_hash)
            .collect();
        let ds: Vec<f64> = squatphi::evasion::layout_distances(&page_hashes, bh)
            .into_iter()
            .map(f64::from)
            .collect();
        if ds.is_empty() {
            continue;
        }
        let mean = ds.iter().sum::<f64>() / ds.len() as f64;
        let std = (ds.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / ds.len() as f64).sqrt();
        rows.push(vec![
            label.to_string(),
            f2(mean),
            f2(std),
            ds.len().to_string(),
        ]);
    }
    table(
        "Figure 9 — mean image-hash distance to the real page, per brand (paper: ~20+)",
        &["Brand", "Mean distance", "Std", "Pages"],
        &rows,
    )
}

/// Table 6: string/code obfuscation per brand on ground truth (paper:
/// e.g. microsoft 70.2% string, facebook 46.6% code).
fn table6(result: &PipelineResult) -> String {
    let analyzer = result.extractor.analyzer();
    let mut rows = Vec::new();
    for label in squatphi_feeds::GroundTruthFeed::top8_labels() {
        let Some(brand) = result.registry.by_label(label) else {
            continue;
        };
        let brand_page = result.world.brand_page(brand.id).expect("brand page");
        let brand_artifact = analyzer.analyze(brand_page);
        let artifacts: Vec<_> = result
            .feed
            .entries
            .iter()
            .filter(|e| e.brand == brand.id && e.still_phishing)
            .take(80)
            .map(|e| analyzer.analyze(&e.html))
            .collect();
        let ms = squatphi::evasion::measure_corpus(
            artifacts.iter().map(|a| a.as_ref()),
            &brand_artifact,
            label,
        );
        if ms.is_empty() {
            continue;
        }
        let s = squatphi::evasion::EvasionSummary::from_measurements(&ms);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}%", s.string_rate * 100.0),
            format!("{:.1}%", s.code_rate * 100.0),
            ms.len().to_string(),
        ]);
    }
    table(
        "Table 6 — string and code obfuscation in ground-truth phishing pages",
        &["Brand", "String Obfuscated", "Code Obfuscated", "Pages"],
        &rows,
    )
}

/// Table 7: classifier performance (paper: RF 0.03 FP / 0.06 FN /
/// 0.97 AUC / 0.90 ACC; NB 0.50 FP).
fn table7(result: &PipelineResult) -> String {
    let rows: Vec<Vec<String>> = result
        .eval
        .models
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                f2(m.metrics.fpr),
                f2(m.metrics.fnr),
                f2(m.metrics.auc),
                f2(m.metrics.accuracy),
            ]
        })
        .collect();
    let mut s = table(
        "Table 7 — classifier cross-validation (paper: RF 0.03/0.06/0.97/0.90)",
        &[
            "Algorithm",
            "False Positive",
            "False Negative",
            "AUC",
            "ACC",
        ],
        &rows,
    );
    s.push_str(&format!(
        "(training set: {} phishing / {} benign)\n",
        result.eval.train_shape.0, result.eval.train_shape.1
    ));
    s
}

/// Figure 10: ROC curves of the three models.
fn fig10(result: &PipelineResult) -> String {
    let mut out = String::from("== Figure 10 — ROC curves (FPR → TPR) ==\n");
    for m in &result.eval.models {
        out.push_str(&format!("{} (AUC {:.3}):\n", m.name, m.metrics.auc));
        // Downsample the curve to ~12 points for readability.
        let pts = &m.roc.points;
        let step = (pts.len() / 12).max(1);
        for (i, (fpr, tpr)) in pts.iter().enumerate() {
            if i % step == 0 || i == pts.len() - 1 {
                out.push_str(&format!("  fpr={fpr:.3} tpr={tpr:.3}\n"));
            }
        }
    }
    out
}

/// Table 8: in-the-wild detection and confirmation (paper: 1,224 web
/// flagged / 857 confirmed 70.0%; 1,269 mobile / 908 72.0%; 1,175
/// domains / 281 brands).
fn table8(result: &PipelineResult) -> String {
    let web_flagged = result.web_detections.len();
    let web_confirmed = result.confirmed(Device::Web).len();
    let mob_flagged = result.mobile_detections.len();
    let mob_confirmed = result.confirmed(Device::Mobile).len();
    let union_domains = result.confirmed_domains().len();
    let union_flagged: std::collections::HashSet<&str> = result
        .web_detections
        .iter()
        .chain(&result.mobile_detections)
        .map(|d| d.domain.as_str())
        .collect();
    let brands: std::collections::HashSet<usize> = result
        .web_detections
        .iter()
        .chain(&result.mobile_detections)
        .filter(|d| d.confirmed)
        .map(|d| d.brand)
        .collect();
    let web_brands: std::collections::HashSet<usize> = result
        .confirmed(Device::Web)
        .iter()
        .map(|d| d.brand)
        .collect();
    let mob_brands: std::collections::HashSet<usize> = result
        .confirmed(Device::Mobile)
        .iter()
        .map(|d| d.brand)
        .collect();
    let rows = vec![
        vec![
            "Web".to_string(),
            result.scan.total_matches().to_string(),
            web_flagged.to_string(),
            format!("{web_confirmed} ({})", pct(web_confirmed, web_flagged)),
            web_brands.len().to_string(),
        ],
        vec![
            "Mobile".to_string(),
            result.scan.total_matches().to_string(),
            mob_flagged.to_string(),
            format!("{mob_confirmed} ({})", pct(mob_confirmed, mob_flagged)),
            mob_brands.len().to_string(),
        ],
        vec![
            "Union".to_string(),
            result.scan.total_matches().to_string(),
            union_flagged.len().to_string(),
            format!(
                "{union_domains} ({})",
                pct(union_domains, union_flagged.len())
            ),
            brands.len().to_string(),
        ],
    ];
    let mut s = table(
        "Table 8 — detected and confirmed squatting phishing (paper: 857 web / 908 mobile / 1,175 domains)",
        &["Type", "Squatting Domains", "Classified as Phishing", "Manually Confirmed", "Related Brands"],
        &rows,
    );
    // §6.1 cloaking split: paper found 590 both / 318 mobile-only /
    // 267 web-only.
    let (both, mobile_only, web_only) = analysis::cloaking_split(result);
    s.push_str(&format!(
        "(cloaking: {both} domains serve both profiles, {mobile_only} mobile-only, {web_only} web-only; paper: 590 / 318 / 267)\n"
    ));
    s
}

/// Table 9: 15 example brands, predicted vs verified.
fn table9(result: &PipelineResult) -> String {
    let labels = [
        "google",
        "facebook",
        "apple",
        "bitcoin",
        "uber",
        "youtube",
        "paypal",
        "citi",
        "ebay",
        "microsoft",
        "twitter",
        "dropbox",
        "github",
        "adp",
        "santander",
    ];
    let mut rows = Vec::new();
    for label in labels {
        let Some(brand) = result.registry.by_label(label) else {
            continue;
        };
        let pred = |set: &[squatphi::pipeline::Detection]| {
            let mut seen = std::collections::HashSet::new();
            set.iter()
                .filter(|d| d.brand == brand.id && seen.insert(d.domain.as_str()))
                .count()
        };
        let conf = |device: Device| {
            let mut seen = std::collections::HashSet::new();
            result
                .confirmed(device)
                .iter()
                .filter(|d| d.brand == brand.id && seen.insert(d.domain.as_str()))
                .count()
        };
        let (pw, pm) = (
            pred(&result.web_detections),
            pred(&result.mobile_detections),
        );
        let (cw, cm) = (conf(Device::Web), conf(Device::Mobile));
        rows.push(vec![
            label.to_string(),
            result.scan.by_brand[brand.id].to_string(),
            pw.to_string(),
            pm.to_string(),
            format!("{cw} ({})", pct(cw, pw)),
            format!("{cm} ({})", pct(cm, pm)),
        ]);
    }
    table(
        "Table 9 — example brands: predicted vs manually verified phishing pages",
        &[
            "Brand",
            "Squatting Domains",
            "Pred Web",
            "Pred Mobile",
            "Verified Web",
            "Verified Mobile",
        ],
        &rows,
    )
}

/// Figure 11: CDF of verified phishing domains per brand (paper: most
/// brands < 10).
fn fig11(result: &PipelineResult) -> String {
    let per_brand = analysis::confirmed_per_brand(result);
    let counts: Vec<usize> = per_brand.iter().map(|(_, w, m)| *w + *m).collect();
    let thresholds = [1usize, 2, 5, 10, 20, 50, 100];
    let points: Vec<(String, String)> = thresholds
        .iter()
        .map(|&t| {
            let frac =
                counts.iter().filter(|&&c| c <= t).count() as f64 / counts.len().max(1) as f64;
            (format!("<= {t}"), format!("{:.1}%", frac * 100.0))
        })
        .collect();
    series(
        "Figure 11 — CDF of verified phishing domains per targeted brand (paper: most brands < 10)",
        "Domains per brand",
        "CDF of brands",
        &points,
    )
}

/// Figure 12: confirmed squatting phishing per squat type (paper: combo
/// largest, 200+ in homograph/bits/typo).
fn fig12(result: &PipelineResult) -> String {
    let per_type = analysis::confirmed_per_type(result);
    let names = ["Homograph", "Bits", "Typo", "Combo", "WrongTLD"];
    let rows: Vec<Vec<String>> = (0..5)
        .map(|i| {
            vec![
                names[i].to_string(),
                per_type[i].0.to_string(),
                per_type[i].1.to_string(),
            ]
        })
        .collect();
    table(
        "Figure 12 — confirmed squatting phishing domains per type (paper: combo largest)",
        &["Type", "Web", "Mobile"],
        &rows,
    )
}

/// Figure 13: top targeted brands (paper: google first with 194 pages).
fn fig13(result: &PipelineResult) -> String {
    let per_brand = analysis::confirmed_per_brand(result);
    let rows: Vec<Vec<String>> = per_brand
        .iter()
        .take(30)
        .map(|(label, w, m)| {
            vec![
                label.clone(),
                w.to_string(),
                m.to_string(),
                (w + m).to_string(),
            ]
        })
        .collect();
    table(
        "Figure 13 — top brands targeted by squatting phishing (paper: google first, 194 pages)",
        &["Brand", "Web", "Mobile", "Total"],
        &rows,
    )
}

/// Table 10: example confirmed phishing domains for a set of brands.
fn table10(result: &PipelineResult) -> String {
    let labels = [
        "google",
        "facebook",
        "apple",
        "bitcoin",
        "uber",
        "youtube",
        "paypal",
        "citi",
        "ebay",
        "microsoft",
        "twitter",
        "dropbox",
        "adp",
        "santander",
    ];
    let mut rows = Vec::new();
    for label in labels {
        for d in analysis::examples_per_brand(result, label, 3) {
            rows.push(vec![
                label.to_string(),
                d.domain.clone(),
                d.squat_type.to_string(),
            ]);
        }
    }
    table(
        "Table 10 — example confirmed squatting phishing domains",
        &["Brand", "Squatting Phishing Domain", "Squatting Type"],
        &rows,
    )
}

/// Figure 14: case-study screenshots as ASCII art.
fn fig14(result: &PipelineResult) -> String {
    let mut out = String::from("== Figure 14 — case-study phishing page renders ==\n");
    let mut shown = 0;
    for d in result.confirmed(Device::Web) {
        if shown >= 3 {
            break;
        }
        if let squatphi_web::ServeResult::Page(html) = result.world.serve(&d.domain, Device::Web, 0)
        {
            let bmp = result.extractor.analyzer().screenshot(&html);
            out.push_str(&format!("--- {} ---\n", d.domain));
            out.push_str(&ascii::to_ascii(&bmp, 72));
            shown += 1;
        }
    }
    if shown == 0 {
        out.push_str("(no live confirmed phishing pages to render)\n");
    }
    out
}

/// Figure 15: geolocation of phishing IPs (paper: US 494, DE 106, GB 77).
fn fig15(result: &PipelineResult) -> String {
    let geo = analysis::geo_distribution(result);
    let rows: Vec<Vec<String>> = geo
        .iter()
        .take(10)
        .map(|(c, n)| vec![c.to_string(), n.to_string()])
        .collect();
    let mut s = table(
        "Figure 15 — phishing host geolocation (paper: US 494, DE 106, GB 77, FR 44 …)",
        &["Country", "Hosts"],
        &rows,
    );
    s.push_str(&format!("(countries observed: {})\n", geo.len()));
    s
}

/// Figure 16: registration years of phishing domains (paper: mostly the
/// recent 4 years).
fn fig16(result: &PipelineResult) -> String {
    let hist = analysis::registration_histogram(result);
    let rows: Vec<Vec<String>> = hist
        .iter()
        .map(|(y, n)| vec![y.to_string(), n.to_string()])
        .collect();
    table(
        "Figure 16 — registration year of confirmed phishing domains (paper: recent-heavy)",
        &["Year", "Registered Domains"],
        &rows,
    )
}

/// Figure 17: live phishing pages per snapshot (paper: ~80% survive the
/// month). Uses the paper's method — re-crawl the detected set at every
/// snapshot and *re-apply the classifier* — not the world's ground truth.
fn fig17(result: &PipelineResult) -> String {
    let live = squatphi::snapshots::recrawl_and_classify(result, 8);
    let rows: Vec<Vec<String>> = live
        .iter()
        .enumerate()
        .map(|(i, (w, m))| vec![SNAPSHOT_DATES[i].to_string(), w.to_string(), m.to_string()])
        .collect();
    let mut s = table(
        "Figure 17 — live phishing pages per snapshot, re-crawled and re-classified (paper: ~80% survive a month)",
        &["Snapshot", "Web", "Mobile"],
        &rows,
    );
    if live[0].0 + live[0].1 > 0 {
        let survive = (live[3].0 + live[3].1) as f64 / (live[0].0 + live[0].1) as f64;
        s.push_str(&format!(
            "(survival after one month: {:.1}%)\n",
            survive * 100.0
        ));
    }
    s
}

/// Table 11: evasion rates, squatting vs non-squatting phishing (paper:
/// layout 28.4±11.8 vs 21.0±12.3; string 68.1% vs 35.9%; code 34.0% vs
/// 37.5%).
fn table11(result: &PipelineResult) -> String {
    let analyzer = result.extractor.analyzer();
    // Both sets group pages by brand so each brand's corpus goes through
    // one bulk `measure_corpus` call (one index build / one radius query
    // per brand instead of a pairwise loop). BTreeMap keeps brand order —
    // and therefore the measurement order the summary sums over —
    // deterministic and identical with the index on or off.
    let measure_grouped = |pages: Vec<(usize, String)>| {
        let mut by_brand: std::collections::BTreeMap<usize, Vec<String>> =
            std::collections::BTreeMap::new();
        for (brand, html) in pages {
            by_brand.entry(brand).or_default().push(html);
        }
        let mut ms = Vec::new();
        for (brand_id, htmls) in by_brand {
            let Some(brand) = result.registry.get(brand_id) else {
                continue;
            };
            let Some(brand_page) = result.world.brand_page(brand_id) else {
                continue;
            };
            let brand_artifact = analyzer.analyze(brand_page);
            let artifacts: Vec<_> = htmls.iter().map(|h| analyzer.analyze(h)).collect();
            ms.extend(squatphi::evasion::measure_corpus(
                artifacts.iter().map(|a| a.as_ref()),
                &brand_artifact,
                &brand.label,
            ));
        }
        ms
    };

    // Squatting phishing: measure a sample of confirmed live pages.
    let squat_pages: Vec<(usize, String)> = result
        .confirmed(Device::Web)
        .iter()
        .take(200)
        .filter_map(|d| match result.world.serve(&d.domain, Device::Web, 0) {
            squatphi_web::ServeResult::Page(html) => Some((d.brand, html)),
            _ => None,
        })
        .collect();
    let squat = squatphi::evasion::EvasionSummary::from_measurements(&measure_grouped(squat_pages));

    // Non-squatting: the feed's still-phishing, non-squatting entries.
    let ns_pages: Vec<(usize, String)> = result
        .feed
        .entries
        .iter()
        .filter(|e| e.still_phishing && e.squat_type.is_none())
        .take(300)
        .map(|e| (e.brand, e.html.clone()))
        .collect();
    let ns = squatphi::evasion::EvasionSummary::from_measurements(&measure_grouped(ns_pages));

    let row = |name: &str, s: &squatphi::evasion::EvasionSummary| {
        vec![
            name.to_string(),
            format!("{:.1} ± {:.1}", s.layout_mean, s.layout_std),
            format!("{:.1}%", s.string_rate * 100.0),
            format!("{:.1}%", s.code_rate * 100.0),
            s.count.to_string(),
        ]
    };
    table(
        "Table 11 — evasion: squatting vs non-squatting phishing (paper: 28.4±11.8 / 68.1% / 34.0% vs 21.0±12.3 / 35.9% / 37.5%)",
        &["Set", "Layout Obfuscation", "String Obfuscation", "Code Obfuscation", "Pages"],
        &[row("Squatting", &squat), row("Non-Squatting", &ns)],
    )
}

/// Table 12: blacklist coverage one month in (paper: PhishTank 0, VT 100
/// (8.5%), eCrimeX 2, 91.5% undetected).
fn table12(result: &PipelineResult) -> String {
    let (pt, vt, ecx, none) = analysis::blacklist_coverage(result);
    let total = result.confirmed_domains().len();
    let rows = vec![vec![
        format!("{pt} ({})", pct(pt, total)),
        format!("{vt} ({})", pct(vt, total)),
        format!("{ecx} ({})", pct(ecx, total)),
        format!("{none} ({})", pct(none, total)),
    ]];
    table(
        "Table 12 — blacklist coverage after one month (paper: 0 / 100 (8.5%) / 2 / 91.5% undetected)",
        &["PhishTank", "VirusTotal", "eCrimeX", "Not Detected"],
        &rows,
    )
}

/// Table 13: per-domain liveness across the four snapshots, including a
/// comeback domain if one exists (paper: tacebook.ga pattern).
fn table13(result: &PipelineResult) -> String {
    let mut rows = Vec::new();
    // Prefer interesting traces: one stable, takedowns, and a comeback.
    let mut comeback = None;
    let mut takedown = None;
    let mut stable = Vec::new();
    for domain in result.confirmed_domains() {
        if let Some(site) = result.world.site(domain) {
            if let SiteBehavior::Phishing(p) = &site.behavior {
                match p.lifetime {
                    LifetimePattern::Comeback if comeback.is_none() => comeback = Some(domain),
                    LifetimePattern::TakenDown { .. } if takedown.is_none() => {
                        takedown = Some(domain)
                    }
                    LifetimePattern::Stable if stable.len() < 4 => stable.push(domain),
                    _ => {}
                }
            }
        }
    }
    for domain in stable.into_iter().chain(takedown).chain(comeback) {
        let trace = analysis::liveness_trace(result, domain);
        rows.push(vec![
            domain.to_string(),
            trace[0].to_string(),
            trace[1].to_string(),
            trace[2].to_string(),
            trace[3].to_string(),
        ]);
    }
    table(
        "Table 13 — liveness of confirmed phishing pages across snapshots (paper: incl. a comeback domain)",
        &["Domain", SNAPSHOT_DATES[0], SNAPSHOT_DATES[1], SNAPSHOT_DATES[2], SNAPSHOT_DATES[3]],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi::{RunOptions, SimConfig, SquatPhi};
    use std::sync::OnceLock;

    fn result() -> &'static PipelineResult {
        static R: OnceLock<PipelineResult> = OnceLock::new();
        R.get_or_init(|| {
            SquatPhi::try_run(&SimConfig::tiny(), &RunOptions::default())
                .expect("tiny pipeline runs clean")
        })
    }

    #[test]
    fn every_experiment_runs() {
        let r = result();
        for id in EXPERIMENT_IDS {
            let out = run_experiment(id, r).unwrap_or_else(|| panic!("{id} unknown"));
            assert!(!out.trim().is_empty(), "{id} produced empty output");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("nope", result()).is_none());
    }

    #[test]
    fn table1_contains_all_five_types() {
        let t = table1();
        for name in ["homograph", "bits", "typo", "combo", "wrongtld"] {
            assert!(t.contains(name), "table1 missing {name}: {t}");
        }
        assert!(t.contains("punycode:"), "table1 missing an IDN example");
    }

    #[test]
    fn fig2_combo_dominates() {
        let out = fig2(result());
        assert!(out.contains("Combo"));
        // Combo must carry the largest measured count.
        let combo = result().scan.count(SquatType::Combo);
        for t in [
            SquatType::Homograph,
            SquatType::Bits,
            SquatType::Typo,
            SquatType::WrongTld,
        ] {
            assert!(combo > result().scan.count(t));
        }
    }

    #[test]
    fn fig8_distances_monotone_overall() {
        let out = fig8();
        // Parse the distances back out.
        let ds: Vec<u32> = out
            .lines()
            .filter(|l| l.starts_with("intensity"))
            .filter_map(|l| l.split_whitespace().last()?.parse().ok())
            .collect();
        assert_eq!(ds.len(), 4);
        assert!(
            ds[3] > ds[0],
            "intensity 3 ({}) should exceed 0 ({})",
            ds[3],
            ds[0]
        );
    }

    #[test]
    fn table7_has_three_rows() {
        let out = table7(result());
        for name in ["NaiveBayes", "KNN", "RandomForest"] {
            assert!(out.contains(name));
        }
    }

    #[test]
    fn table12_percentages_sane() {
        let (pt, vt, ecx, none) = analysis::blacklist_coverage(result());
        let total = result().confirmed_domains().len();
        assert!(none <= total);
        assert!(
            pt + vt + ecx + none >= total.saturating_sub(3),
            "coverage buckets lost domains"
        );
        assert!(
            none * 10 >= total * 8,
            "squatting phishing should be mostly undetected"
        );
    }
}
