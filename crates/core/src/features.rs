//! Page feature extraction (paper §5.1-5.2).
//!
//! Three feature families, all brand-agnostic so the classifier learns
//! "the nature of phishing" rather than per-brand templates:
//!
//! * **image-based OCR features** — the page is rendered and the
//!   screenshot OCR'd; recognized tokens are spell-corrected and embedded
//!   (defeats string/code obfuscation: whatever the user *sees* is
//!   captured),
//! * **text-based lexical features** — tokens from `h*`, `p`, `a` and
//!   `title` tags (cheap, catches non-evasive pages),
//! * **form-based features** — tokens from `type` / `name` /
//!   `placeholder` / submit attributes plus numeric counts (form count,
//!   password inputs, text inputs).
//!
//! The expensive derivation (parse → render → OCR) lives in
//! [`crate::artifact::PageAnalyzer`]; this module only *embeds* the
//! resulting [`PageArtifact`] into the feature space. Spell correction
//! happens here rather than in the artifact because it depends on the
//! extractor's brand dictionary.

use crate::artifact::{PageAnalyzer, PageArtifact};
use squatphi_ml::Dataset;
use squatphi_nlp::{FeatureSpace, SparseVec, SpellChecker};
use squatphi_squat::BrandRegistry;
use squatphi_telemetry::par_map;
use std::sync::Arc;
use std::time::Instant;

/// `par_map` grain of page analysis: a cache miss (parse → render → pHash
/// → OCR) costs ~180 µs (`artifact.analyze_miss_us`) against 20–50 µs to
/// spawn and join a thread, so one page still pays for a worker. A new
/// worker's cold start only breaks even from ~16 pages up, but every
/// caller hands over hundreds (measurements in DESIGN.md §5).
pub(crate) const ANALYZE_GRAIN: usize = 1;

/// Keywords beyond the spell-check dictionary that frequently appear in
/// ground-truth phishing pages (§5.2 builds this list from the training
/// data; we curate it from our page generators' vocabulary plus generic
/// phishing material so it stays brand-agnostic).
const PHISH_KEYWORDS: &[&str] = &[
    "alert",
    "access",
    "authenticate",
    "bonus",
    "call",
    "center",
    "critical",
    "deposit",
    "device",
    "direct",
    "driver",
    "expired",
    "gift",
    "infected",
    "instant",
    "locked",
    "loads",
    "message",
    "official",
    "panel",
    "paycheck",
    "payroll",
    "pickup",
    "portal",
    "recover",
    "remote",
    "required",
    "restore",
    "search",
    "session",
    "sponsored",
    "ssn",
    "social",
    "statement",
    "suspend",
    "unusual",
    "validate",
    "virus",
    "waiting",
    "warning",
];

/// Extracts sparse feature vectors from crawled pages. Clones share the
/// underlying [`PageAnalyzer`] (and therefore its cache and metrics).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    space: FeatureSpace,
    spell: SpellChecker,
    analyzer: Arc<PageAnalyzer>,
}

/// Names of the numeric feature dimensions.
const NUMERIC: &[&str] = &[
    "form_count",
    "password_inputs",
    "text_inputs",
    "submit_controls",
    "js_obfuscated",
];

impl FeatureExtractor {
    /// Builds the extractor: the feature space covers the phishing
    /// keyword list, the task dictionary, and every brand label
    /// (the paper's 987-dimension embedding). Page analysis runs through
    /// a fresh content-addressed cache.
    pub fn new(registry: &BrandRegistry) -> Self {
        Self::with_analyzer(registry, Arc::new(PageAnalyzer::new()))
    }

    /// Same feature space, but with the analysis cache disabled — every
    /// page runs the full parse/render/OCR derivation. The byte-equality
    /// tests compare this against the cached path.
    pub fn uncached(registry: &BrandRegistry) -> Self {
        Self::with_analyzer(registry, Arc::new(PageAnalyzer::uncached()))
    }

    /// Builds the extractor around an existing analyzer, so several
    /// consumers (feature extraction, evasion measurement, experiments)
    /// can share one cache.
    pub fn with_analyzer(registry: &BrandRegistry, analyzer: Arc<PageAnalyzer>) -> Self {
        let brand_labels: Vec<String> = registry.brands().iter().map(|b| b.label.clone()).collect();
        let keywords = squatphi_nlp::spell::BASE_DICTIONARY
            .iter()
            .copied()
            .chain(PHISH_KEYWORDS.iter().copied())
            .map(String::from)
            .chain(brand_labels.iter().cloned());
        FeatureExtractor {
            space: FeatureSpace::new(keywords, NUMERIC),
            spell: SpellChecker::new(brand_labels),
            analyzer,
        }
    }

    /// Total feature dimension.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// The underlying feature space (read-only).
    pub fn space(&self) -> &FeatureSpace {
        &self.space
    }

    /// The shared page analyzer (for metrics and direct artifact access).
    pub fn analyzer(&self) -> &PageAnalyzer {
        &self.analyzer
    }

    /// Extracts the full feature vector for one page's HTML, analyzing
    /// (or fetching from cache) as needed.
    pub fn extract(&self, html: &str) -> SparseVec {
        self.extract_from_artifact(&self.analyzer.analyze(html))
    }

    /// Embeds an already-analyzed page into the feature space.
    pub fn extract_from_artifact(&self, a: &PageArtifact) -> SparseVec {
        let started = Instant::now();
        let mut v = SparseVec::new();

        // Lexical features from HTML text, then form features.
        for t in a.lexical_tokens.iter().chain(&a.form_tokens) {
            self.embed_token(t, &mut v);
        }

        // OCR features from the rendered screenshot, spell-corrected
        // against this extractor's brand dictionary.
        for t in &a.ocr_tokens {
            self.embed_token(self.spell.correct(t), &mut v);
        }

        // Numeric features.
        let numeric = [
            a.form_count as f64,
            a.password_inputs as f64,
            a.text_inputs as f64,
            a.submit_controls as f64,
            f64::from(a.js.is_obfuscated()),
        ];
        for (name, value) in NUMERIC.iter().zip(numeric) {
            if value != 0.0 {
                // NUMERIC is the same constant the FeatureSpace
                // constructor registered, so lookup cannot miss.
                let dim = self
                    .space
                    .numeric(name)
                    .expect("every NUMERIC name is registered at FeatureSpace construction");
                v.add(dim, value);
            }
        }
        self.analyzer.note_embed(started.elapsed());
        v
    }

    fn embed_token(&self, token: &str, v: &mut SparseVec) {
        if let Some(i) = self.space.keyword(token) {
            v.add(i, 1.0);
        }
    }

    /// Analyzes many pages in parallel (stage 1 of the batch executor),
    /// in input order. Only the first occurrence of each distinct HTML
    /// string fans out; its repeats then run on the caller in index order,
    /// where the cache serves them. Two copies of a page never race to a
    /// miss on two workers, so the hit/miss split does not depend on the
    /// thread count or the schedule.
    pub fn analyze_batch(&self, htmls: &[&str], threads: usize) -> Vec<Arc<PageArtifact>> {
        // `first[i]`: the lowest index holding the same string as `i`.
        // Sorting by length first settles most comparisons on one integer.
        let mut order: Vec<usize> = (0..htmls.len()).collect();
        order.sort_unstable_by_key(|&i| (htmls[i].len(), htmls[i], i));
        let mut first = vec![0; htmls.len()];
        for copies in order.chunk_by(|&a, &b| htmls[a] == htmls[b]) {
            for &i in copies {
                first[i] = copies[0];
            }
        }
        let distinct: Vec<usize> = (0..htmls.len()).filter(|&i| first[i] == i).collect();
        let mut fresh = par_map(distinct.len(), threads, ANALYZE_GRAIN, |j| {
            self.analyzer.analyze(htmls[distinct[j]])
        })
        .into_iter();
        (0..htmls.len())
            .map(|i| {
                if first[i] == i {
                    fresh.next().expect("one artifact per distinct page")
                } else {
                    self.analyzer.analyze(htmls[i])
                }
            })
            .collect()
    }

    /// Extracts features for many pages: parallel analysis (stage 1),
    /// then sequential embedding (stage 2 — pure in-memory lookups, far
    /// cheaper than rendering, and sequential keeps it deterministic).
    pub fn extract_batch(&self, htmls: &[&str], threads: usize) -> Vec<SparseVec> {
        self.analyze_batch(htmls, threads)
            .iter()
            .map(|a| self.extract_from_artifact(a))
            .collect()
    }

    /// Builds a labeled dataset from (html, label) pairs.
    pub fn build_dataset(&self, pages: &[(&str, bool)], threads: usize) -> Dataset {
        let htmls: Vec<&str> = pages.iter().map(|(h, _)| *h).collect();
        let vecs = self.extract_batch(&htmls, threads);
        let mut data = Dataset::new(self.dim());
        for (v, (_, y)) in vecs.into_iter().zip(pages) {
            data.push(v, *y);
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
    use squatphi_web::pages;

    fn extractor() -> (FeatureExtractor, BrandRegistry) {
        let reg = BrandRegistry::with_size(10);
        (FeatureExtractor::new(&reg), reg)
    }

    fn profile(string_obf: bool) -> PhishingProfile {
        PhishingProfile {
            brand: 0,
            scam: ScamKind::FakeLogin,
            layout_obfuscation: 1,
            string_obfuscation: string_obf,
            code_obfuscation: false,
            cloaking: Cloaking::None,
            lifetime: LifetimePattern::Stable,
        }
    }

    #[test]
    fn phishing_page_lights_password_features() {
        let (fx, reg) = extractor();
        let brand = reg.by_label("paypal").unwrap();
        let html = pages::phishing_page(brand, &profile(false), "paypal-cash.com", 1);
        let v = fx.extract(&html);
        let pw_dim = fx.space().numeric("password_inputs").unwrap();
        assert!(v.get(pw_dim) >= 1.0, "password inputs not counted");
        let kw = fx.space().keyword("password").unwrap();
        assert!(v.get(kw) >= 1.0, "password keyword missing");
    }

    #[test]
    fn ocr_recovers_brand_despite_string_obfuscation() {
        let (fx, reg) = extractor();
        let brand = reg.by_label("paypal").unwrap();
        // Image-logo variant (odd seed): brand only in pixels.
        let html = pages::phishing_page(brand, &profile(true), "paypal-cash.com", 3);
        let v = fx.extract(&html);
        let brand_dim = fx.space().keyword("paypal").unwrap();
        assert!(
            v.get(brand_dim) >= 1.0,
            "OCR + spell-check failed to recover the brand keyword"
        );
    }

    #[test]
    fn benign_page_has_sparse_features() {
        let (fx, _) = extractor();
        let html = pages::benign_page("pepper-garden.com", 1);
        let v = fx.extract(&html);
        let pw_dim = fx.space().numeric("password_inputs").unwrap();
        assert_eq!(v.get(pw_dim), 0.0);
        let form_dim = fx.space().numeric("form_count").unwrap();
        assert_eq!(v.get(form_dim), 0.0);
    }

    #[test]
    fn confusing_benign_has_forms_but_no_password() {
        let (fx, _) = extractor();
        let html = pages::confusing_benign_page("x.com", Some("paypal"), 0);
        let v = fx.extract(&html);
        let form_dim = fx.space().numeric("form_count").unwrap();
        let pw_dim = fx.space().numeric("password_inputs").unwrap();
        assert!(v.get(form_dim) >= 1.0);
        assert_eq!(v.get(pw_dim), 0.0);
    }

    #[test]
    fn batch_matches_single() {
        let (fx, _) = extractor();
        let pages_html = [
            pages::benign_page("a.com", 1),
            pages::parked_page("b.com"),
            pages::confusing_benign_page("c.com", None, 2),
        ];
        let refs: Vec<&str> = pages_html.iter().map(String::as_str).collect();
        let batch = fx.extract_batch(&refs, 3);
        for (b, h) in batch.iter().zip(&refs) {
            assert_eq!(*b, fx.extract(h));
        }
    }

    #[test]
    fn duplicate_html_costs_one_analysis() {
        let (fx, _) = extractor();
        // Eight byte-identical captures — the detect_device web+mobile
        // situation for uncloaked template sites.
        let page = pages::parked_page("dup.example.com");
        let refs: Vec<&str> = vec![page.as_str(); 8];
        let batch = fx.extract_batch(&refs, 1);
        let m = fx.analyzer().metrics();
        assert_eq!(m.pages, 8);
        assert_eq!(m.cache_misses, 1, "identical HTML must be analyzed once");
        assert_eq!(m.cache_hits, 7);
        assert!(m.reconciles());
        for v in &batch[1..] {
            assert_eq!(*v, batch[0]);
        }
    }

    #[test]
    fn cached_and_uncached_vectors_match() {
        let reg = BrandRegistry::with_size(10);
        let cached = FeatureExtractor::new(&reg);
        let uncached = FeatureExtractor::uncached(&reg);
        let brand = reg.by_label("paypal").unwrap();
        let corpus = [
            pages::phishing_page(brand, &profile(false), "paypal-cash.com", 1),
            pages::benign_page("a.com", 7),
            pages::parked_page("b.com"),
            pages::benign_page("a.com", 7), // repeat → cache hit
        ];
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        assert_eq!(
            cached.extract_batch(&refs, 2),
            uncached.extract_batch(&refs, 2),
            "cache must be invisible in the feature vectors"
        );
        assert!(cached.analyzer().metrics().cache_hits >= 1);
        assert_eq!(uncached.analyzer().metrics().cache_hits, 0);
    }

    #[test]
    fn extract_batch_is_deterministic_across_thread_counts() {
        let (fx, _) = extractor();
        let corpus: Vec<String> = (0..24)
            .map(|i| match i % 3 {
                0 => pages::benign_page("a.com", i / 3),
                1 => pages::parked_page("b.com"),
                _ => pages::confusing_benign_page("c.com", Some("paypal"), i / 3),
            })
            .collect();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let single = fx.extract_batch(&refs, 1);
        for threads in [2, 8] {
            assert_eq!(
                fx.extract_batch(&refs, threads),
                single,
                "{threads}-thread batch diverged from sequential"
            );
        }
    }

    #[test]
    fn hit_miss_split_is_the_same_at_every_thread_count() {
        let reg = BrandRegistry::with_size(10);
        // Eight copies of one page up front, where eight workers would
        // each claim one at once, then a copy of another page among 16
        // more: each copy after the first is a hit however workers run.
        let corpus: Vec<String> = (0..24)
            .map(|i| match i {
                0..8 => pages::parked_page("b.com"),
                8..16 => pages::benign_page("a.com", i % 5),
                _ => pages::confusing_benign_page("c.com", Some("paypal"), i),
            })
            .collect();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let distinct = refs.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        assert!(distinct <= 17);
        for threads in [1, 2, 8] {
            let fx = FeatureExtractor::new(&reg);
            fx.analyze_batch(&refs, threads);
            let m = fx.analyzer().metrics();
            assert_eq!(
                (m.pages, m.cache_misses, m.cache_hits),
                (24, distinct, 24 - distinct),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn stage_nanos_fit_inside_wall_clock() {
        let (fx, _) = extractor();
        let corpus: Vec<String> = (0..6).map(|i| pages::benign_page("t.com", i)).collect();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let started = std::time::Instant::now();
        fx.extract_batch(&refs, 1);
        let wall = started.elapsed().as_nanos() as u64;
        let m = fx.analyzer().metrics();
        assert!(m.stage_nanos() > 0, "stage timers never ticked");
        assert!(
            m.stage_nanos() <= wall,
            "single-threaded stage nanos {} exceed wall {}",
            m.stage_nanos(),
            wall
        );
    }

    #[test]
    fn build_dataset_labels() {
        let (fx, _) = extractor();
        let a = pages::benign_page("a.com", 1);
        let b = pages::parked_page("b.com");
        let data = fx.build_dataset(&[(a.as_str(), false), (b.as_str(), true)], 2);
        assert_eq!(data.len(), 2);
        assert!(!data.y(0));
        assert!(data.y(1));
        assert_eq!(data.dim(), fx.dim());
    }

    #[test]
    fn dimension_is_substantial() {
        let reg = BrandRegistry::paper();
        let fx = FeatureExtractor::new(&reg);
        // Paper: 987 dims. Ours: dictionary + keywords + 702 brands + 5.
        assert!(fx.dim() > 700, "dim {}", fx.dim());
        assert!(fx.dim() < 1100, "dim {}", fx.dim());
    }
}
