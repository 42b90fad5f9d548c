//! Evasion characterization (paper §4.2, Figures 8-9, Tables 6 and 11).
//!
//! All measurements are artifact-based: page and brand HTML go through
//! the shared [`PageAnalyzer`], so bulk callers (the experiment tables
//! measure hundreds of pages against a handful of brand pages) hit the
//! content-addressed cache instead of re-rendering the brand page per
//! comparison — the old `brand_hash` / `layout_distance` helpers existed
//! only to hand-roll that amortization and are gone.

use crate::artifact::{PageAnalyzer, PageArtifact};
use squatphi_imghash::ImageHash;

/// Per-page evasion measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EvasionMeasurement {
    /// pHash Hamming distance between this page and the brand's real page.
    pub layout_distance: u32,
    /// Brand name absent from the HTML-level text (string obfuscation).
    pub string_obfuscated: bool,
    /// Obfuscation indicators present in the page's JavaScript.
    pub code_obfuscated: bool,
}

/// Measures one page against its target brand, analyzing both through
/// `analyzer` (cache hits when either page was already seen).
///
/// * layout — render both pages, hash, Hamming distance (§4.2 "Layout
///   Obfuscation"),
/// * string — extract all HTML text; the page is string-obfuscated when
///   the brand label does not appear (§4.2 "String Obfuscation"),
/// * code — FrameHanger-style indicator scan (§4.2 "Code Obfuscation").
pub fn measure(
    analyzer: &PageAnalyzer,
    page_html: &str,
    brand_html: &str,
    brand_label: &str,
) -> EvasionMeasurement {
    measure_artifacts(
        &analyzer.analyze(page_html),
        &analyzer.analyze(brand_html),
        brand_label,
    )
}

/// Measures already-analyzed artifacts — the zero-recompute path when
/// the caller holds artifacts from the pipeline. Delegates to the corpus
/// path with a one-page corpus, so there is exactly one measurement
/// implementation.
pub fn measure_artifacts(
    page: &PageArtifact,
    brand: &PageArtifact,
    brand_label: &str,
) -> EvasionMeasurement {
    measure_corpus(std::iter::once(page), brand, brand_label)
        .pop()
        .expect("one page in, one measurement out")
}

/// Layout distances from `brand_hash` to every page hash, in corpus order.
pub fn layout_distances(page_hashes: &[ImageHash], brand_hash: ImageHash) -> Vec<u32> {
    page_hashes.iter().map(|h| brand_hash.distance(h)).collect()
}

/// Measures a whole corpus of pages against one brand page — the bulk
/// path behind Figures 8-9 and Tables 6/11. Layout distances go through
/// [`layout_distances`]; string/code indicators are per-page.
pub fn measure_corpus<'a, I>(
    pages: I,
    brand: &PageArtifact,
    brand_label: &str,
) -> Vec<EvasionMeasurement>
where
    I: IntoIterator<Item = &'a PageArtifact>,
{
    let pages: Vec<&PageArtifact> = pages.into_iter().collect();
    let hashes: Vec<ImageHash> = pages.iter().map(|p| p.image_hash).collect();
    let label_lower = brand_label.to_ascii_lowercase();
    layout_distances(&hashes, brand.image_hash)
        .into_iter()
        .zip(&pages)
        .map(|(layout_distance, page)| EvasionMeasurement {
            layout_distance,
            string_obfuscated: !page.text_lower.contains(&label_lower),
            code_obfuscated: page.js.is_obfuscated(),
        })
        .collect()
}

/// Aggregate of a set of measurements (one Table 11 row).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvasionSummary {
    /// Mean layout distance.
    pub layout_mean: f64,
    /// Standard deviation of layout distance.
    pub layout_std: f64,
    /// Fraction of string-obfuscated pages.
    pub string_rate: f64,
    /// Fraction of code-obfuscated pages.
    pub code_rate: f64,
    /// Pages measured.
    pub count: usize,
}

impl EvasionSummary {
    /// Summarizes a set of measurements.
    pub fn from_measurements(ms: &[EvasionMeasurement]) -> Self {
        if ms.is_empty() {
            return EvasionSummary::default();
        }
        let n = ms.len() as f64;
        let mean = ms.iter().map(|m| m.layout_distance as f64).sum::<f64>() / n;
        let var = ms
            .iter()
            .map(|m| (m.layout_distance as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        EvasionSummary {
            layout_mean: mean,
            layout_std: var.sqrt(),
            string_rate: ms.iter().filter(|m| m.string_obfuscated).count() as f64 / n,
            code_rate: ms.iter().filter(|m| m.code_obfuscated).count() as f64 / n,
            count: ms.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_squat::BrandRegistry;
    use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
    use squatphi_web::pages;

    fn profile(layout: u8, string_obf: bool, code_obf: bool) -> PhishingProfile {
        PhishingProfile {
            brand: 0,
            scam: ScamKind::FakeLogin,
            layout_obfuscation: layout,
            string_obfuscation: string_obf,
            code_obfuscation: code_obf,
            cloaking: Cloaking::None,
            lifetime: LifetimePattern::Stable,
        }
    }

    #[test]
    fn layout_distance_grows_with_intensity() {
        let analyzer = PageAnalyzer::new();
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let brand_page = pages::brand_login_page(brand);
        let close = pages::phishing_page(brand, &profile(0, false, false), "h.com", 1);
        let far = pages::phishing_page(brand, &profile(3, false, false), "h.com", 1);
        let d_close = measure(&analyzer, &close, &brand_page, "paypal").layout_distance;
        let d_far = measure(&analyzer, &far, &brand_page, "paypal").layout_distance;
        assert!(
            d_far > d_close,
            "intensity 3 ({d_far}) should be farther than 0 ({d_close})"
        );
        // The brand page was analyzed once and served from cache after.
        let m = analyzer.metrics();
        assert_eq!(m.pages, 4);
        assert_eq!(m.cache_misses, 3);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn string_obfuscation_detected() {
        let analyzer = PageAnalyzer::new();
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let brand_page = pages::brand_login_page(brand);
        let plain = pages::phishing_page(brand, &profile(1, false, false), "h.com", 2);
        let obf = pages::phishing_page(brand, &profile(1, true, false), "h.com", 2);
        assert!(!measure(&analyzer, &plain, &brand_page, "paypal").string_obfuscated);
        assert!(measure(&analyzer, &obf, &brand_page, "paypal").string_obfuscated);
    }

    #[test]
    fn code_obfuscation_detected() {
        let analyzer = PageAnalyzer::new();
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let brand_page = pages::brand_login_page(brand);
        let obf = pages::phishing_page(brand, &profile(1, false, true), "h.com", 2);
        assert!(measure(&analyzer, &obf, &brand_page, "paypal").code_obfuscated);
    }

    #[test]
    fn summary_statistics() {
        let ms = vec![
            EvasionMeasurement {
                layout_distance: 10,
                string_obfuscated: true,
                code_obfuscated: false,
            },
            EvasionMeasurement {
                layout_distance: 30,
                string_obfuscated: false,
                code_obfuscated: true,
            },
        ];
        let s = EvasionSummary::from_measurements(&ms);
        assert_eq!(s.layout_mean, 20.0);
        assert_eq!(s.layout_std, 10.0);
        assert_eq!(s.string_rate, 0.5);
        assert_eq!(s.code_rate, 0.5);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(
            EvasionSummary::from_measurements(&[]),
            EvasionSummary::default()
        );
    }

    #[test]
    fn corpus_path_matches_pairwise() {
        let analyzer = PageAnalyzer::new();
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let brand_artifact = analyzer.analyze(&pages::brand_login_page(brand));
        let artifacts: Vec<_> = (0..4u8)
            .map(|i| {
                let p = profile(i % 4, i % 2 == 0, i % 3 == 0);
                analyzer.analyze(&pages::phishing_page(brand, &p, "h.com", i as u64))
            })
            .collect();
        let pairwise: Vec<EvasionMeasurement> = artifacts
            .iter()
            .map(|a| measure_artifacts(a, &brand_artifact, "paypal"))
            .collect();
        let bulk = measure_corpus(
            artifacts.iter().map(|a| a.as_ref()),
            &brand_artifact,
            "paypal",
        );
        assert_eq!(bulk, pairwise);
    }

    #[test]
    fn layout_distances_match_the_linear_oracle() {
        let hashes: Vec<ImageHash> = [0u64, 1, 0xFF, u64::MAX, 0x5555_5555_5555_5555]
            .iter()
            .copied()
            .map(ImageHash)
            .collect();
        let query = ImageHash(0b1010);
        let oracle: Vec<u32> = squatphi_imghash::index::linear::within(&hashes, &query, 64)
            .into_iter()
            .map(|n| n.distance)
            .collect();
        assert_eq!(layout_distances(&hashes, query), oracle);
    }

    #[test]
    fn artifact_path_matches_html_path() {
        let analyzer = PageAnalyzer::new();
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("facebook").unwrap();
        let brand_page = pages::brand_login_page(brand);
        let page = pages::phishing_page(brand, &profile(2, false, false), "faceb00k.pw", 5);
        let via_html = measure(&analyzer, &page, &brand_page, "facebook");
        let via_artifacts = measure_artifacts(
            &analyzer.analyze(&page),
            &analyzer.analyze(&brand_page),
            "facebook",
        );
        assert_eq!(via_html, via_artifacts);
    }
}
