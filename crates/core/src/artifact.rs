//! The shared page-analysis layer (paper §5.1-§5.2).
//!
//! Every downstream consumer of a crawled page — feature extraction,
//! evasion measurement (§4.2), the weekly re-classification (§6.3),
//! classifier reinforcement, the experiment tables and the `page` CLI
//! subcommand — needs the same derived products: parsed DOM text, form
//! structure, JavaScript indicators, a rendered screenshot, its
//! perceptual hash, and the OCR'd text. Historically each consumer
//! re-derived them from raw HTML, so the same page was parsed, rendered
//! and OCR'd up to five times per pipeline run and nothing guaranteed the
//! copies agreed.
//!
//! [`PageAnalyzer::analyze`] performs the whole derivation **exactly
//! once**, producing an immutable [`PageArtifact`]. A seeded,
//! content-addressed [`AnalysisCache`] (sharded for concurrent access)
//! fronts the analyzer, so template-identical squat pages, the
//! byte-identical web/mobile captures of uncloaked sites, and unchanged
//! snapshot re-crawls all cost a single hash probe instead of a render +
//! OCR pass. [`AnalysisMetrics`] counts pages, cache hits/misses and
//! per-stage nanos; [`AnalysisSnapshot`] is the read side surfaced
//! through `PipelineResult` into the `repro` report and `--json`
//! summary, matching the `ScanMetrics` / `TransportMetrics` pattern.

use crate::supervise::QuietGuard;
use squatphi_html::{extract, js, parse, Document, JsIndicators};
use squatphi_imghash::{perceptual_hash, ImageHash};
use squatphi_nlp::{remove_stopwords, tokenize};
use squatphi_ocr::{try_recognize, OcrConfig};
use squatphi_render::{render_page, try_render_page, Bitmap, RenderOptions};
use squatphi_telemetry::{lock_unpoisoned, Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default seed of the content-address hash. Seeding keys the hash per
/// cache instance so a crafted page cannot target a fixed collision.
pub const DEFAULT_CACHE_SEED: u64 = 0x5eed_cafe_2018;

/// Default shard count of the cache (power of two, so shard selection is
/// a mask of the already-computed content key).
pub const DEFAULT_CACHE_SHARDS: usize = 16;

const FX_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Seeded FxHash-style content key over a byte string. Length is mixed
/// in first so prefixes of each other do not trivially collide.
pub fn content_key(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = (seed ^ bytes.len() as u64).wrapping_mul(FX_K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(FX_K);
    }
    h
}

/// Everything the pipeline ever derives from one page's HTML, computed
/// in a single pass and immutable afterwards. One parse means the
/// evasion hashes (Figures 8-9) and the classifier's OCR features can
/// never disagree about the same page.
#[derive(Debug, Clone, PartialEq)]
pub struct PageArtifact {
    /// Seeded content hash of the HTML bytes (the cache address).
    pub content_key: u64,
    /// First `<title>` text, when present.
    pub title: Option<String>,
    /// Whole-page lower-cased visible text (the §4.2 string-obfuscation
    /// substrate).
    pub text_lower: String,
    /// Lexical tokens: tokenized, stopword-filtered visible text.
    pub lexical_tokens: Vec<String>,
    /// Number of `<form>` elements.
    pub form_count: usize,
    /// Inputs with `type="password"`.
    pub password_inputs: usize,
    /// Non-password, non-submit inputs.
    pub text_inputs: usize,
    /// Submit controls.
    pub submit_controls: usize,
    /// Form tokens: tokenized, stopword-filtered input types, names,
    /// placeholders and submit texts.
    pub form_tokens: Vec<String>,
    /// JavaScript obfuscation indicators (§4.2 "Code Obfuscation").
    pub js: JsIndicators,
    /// Perceptual hash of the rendered screenshot (§4.2 "Layout
    /// Obfuscation").
    pub image_hash: ImageHash,
    /// Raw OCR transcript of the rendered screenshot.
    pub ocr_text: String,
    /// OCR tokens: tokenized, stopword-filtered transcript. Spell
    /// correction is *not* applied here — it depends on the consumer's
    /// brand dictionary, so `FeatureExtractor` applies it at embed time.
    pub ocr_tokens: Vec<String>,
    /// True when the visual derivation (render → pHash → OCR) failed or
    /// was forcibly poisoned: the visual block above is zero-filled
    /// (`ImageHash(0)`, empty OCR) and only the lexical+form features
    /// carry signal — the paper's §5 missing-modality fallback.
    pub degraded: bool,
}

struct CacheEntry {
    html: Box<str>,
    artifact: Arc<PageArtifact>,
}

/// Content-addressed artifact cache, sharded for concurrent access.
///
/// [`content_key`] is an un-finalised FxHash, and pages that differ only
/// in a digit or two collide far more often than 2⁻⁶⁴, so a key maps to a
/// small chain of entries and a hit is whichever entry's stored HTML
/// equals the request's. A collision costs one more comparison, is
/// counted once (when the second page joins the chain) and never serves
/// the wrong artifact or evicts the right one — cache-on and cache-off
/// runs are byte-identical by construction.
pub struct AnalysisCache {
    seed: u64,
    shards: Vec<Mutex<HashMap<u64, Vec<CacheEntry>>>>,
}

impl AnalysisCache {
    /// Builds a cache with `shards` shards (clamped to ≥ 1, rounded up
    /// to a power of two) keyed by `seed`.
    pub fn new(seed: u64, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        AnalysisCache {
            seed,
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Vec<CacheEntry>>> {
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    fn lookup(&self, key: u64, html: &str) -> Option<Arc<PageArtifact>> {
        let shard = lock_unpoisoned(self.shard(key));
        let entry = shard.get(&key)?.iter().find(|e| &*e.html == html)?;
        Some(entry.artifact.clone())
    }

    /// Stores a page's artifact; true when `key` already held a
    /// *different* page (a content-key collision). A page another worker
    /// stored in the meantime is left as it is.
    fn insert(&self, key: u64, html: &str, artifact: Arc<PageArtifact>) -> bool {
        let mut shard = lock_unpoisoned(self.shard(key));
        let chain = shard.entry(key).or_insert_with(|| Vec::with_capacity(1));
        if chain.iter().any(|e| &*e.html == html) {
            return false;
        }
        chain.push(CacheEntry {
            html: html.into(),
            artifact,
        });
        chain.len() > 1
    }

    /// Number of cached artifacts across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared counters behind [`AnalysisSnapshot`], homed in a telemetry
/// [`Registry`] under the `analysis.` scope.
struct AnalysisMetrics {
    registry: Registry,
    pages: Counter,
    hits: Counter,
    misses: Counter,
    collisions: Counter,
    parse_nanos: Counter,
    extract_nanos: Counter,
    render_nanos: Counter,
    hash_nanos: Counter,
    ocr_nanos: Counter,
    embed_nanos: Counter,
}

impl Default for AnalysisMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        let scope = registry.scope("analysis");
        AnalysisMetrics {
            pages: scope.counter("pages"),
            hits: scope.counter("cache_hits"),
            misses: scope.counter("cache_misses"),
            collisions: scope.counter("key_collisions"),
            parse_nanos: scope.counter("parse_nanos"),
            extract_nanos: scope.counter("extract_nanos"),
            render_nanos: scope.counter("render_nanos"),
            hash_nanos: scope.counter("hash_nanos"),
            ocr_nanos: scope.counter("ocr_nanos"),
            embed_nanos: scope.counter("embed_nanos"),
            registry,
        }
    }
}

impl AnalysisMetrics {
    fn add_nanos(counter: &Counter, d: Duration) {
        counter.add(d.as_nanos() as u64);
    }
}

/// Point-in-time read of the analysis counters, reconciling exactly:
/// `pages == cache_hits + cache_misses` always holds (a disabled cache
/// counts every page as a miss).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisSnapshot {
    /// Pages requested through [`PageAnalyzer::analyze`].
    pub pages: u64,
    /// Requests served from the cache.
    pub cache_hits: u64,
    /// Requests that ran the full derivation.
    pub cache_misses: u64,
    /// Distinct pages that joined a cache key another page already held
    /// (each is also one of the `cache_misses`).
    pub key_collisions: u64,
    /// Nanoseconds spent parsing HTML.
    pub parse_nanos: u64,
    /// Nanoseconds spent on text/form/JS extraction and tokenization.
    pub extract_nanos: u64,
    /// Nanoseconds spent rendering screenshots.
    pub render_nanos: u64,
    /// Nanoseconds spent perceptual-hashing screenshots.
    pub hash_nanos: u64,
    /// Nanoseconds spent OCR-ing screenshots.
    pub ocr_nanos: u64,
    /// Nanoseconds spent embedding tokens into feature vectors (recorded
    /// by `FeatureExtractor`, the layer above the analyzer).
    pub embed_nanos: u64,
}

impl AnalysisSnapshot {
    /// The reconciliation invariant: every page is either a hit or a
    /// miss, nothing double-counts and nothing is lost. Checked
    /// declaratively against the exported telemetry
    /// (`analysis.cache_conservation`).
    pub fn reconciles(&self) -> bool {
        let reg = Registry::new();
        self.export(&reg.scope("analysis"));
        squatphi_telemetry::invariants::analysis_invariants().all_hold(&reg.snapshot())
    }

    /// Publishes the snapshot into a telemetry scope (canonically
    /// `analysis`). The nano counters use timing-rule names, so default
    /// `--json` output zeroes them.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        scope.set_u64("pages", self.pages);
        scope.set_u64("cache_hits", self.cache_hits);
        scope.set_u64("cache_misses", self.cache_misses);
        scope.set_u64("key_collisions", self.key_collisions);
        scope.set_u64("parse_nanos", self.parse_nanos);
        scope.set_u64("extract_nanos", self.extract_nanos);
        scope.set_u64("render_nanos", self.render_nanos);
        scope.set_u64("hash_nanos", self.hash_nanos);
        scope.set_u64("ocr_nanos", self.ocr_nanos);
        scope.set_u64("embed_nanos", self.embed_nanos);
    }

    /// Reads a snapshot back from an exported scope — the inverse of
    /// [`AnalysisSnapshot::export`].
    pub fn from_snapshot(snap: &squatphi_telemetry::Snapshot, prefix: &str) -> AnalysisSnapshot {
        let get = |leaf: &str| snap.u64_or_zero(&format!("{prefix}.{leaf}"));
        AnalysisSnapshot {
            pages: get("pages"),
            cache_hits: get("cache_hits"),
            cache_misses: get("cache_misses"),
            key_collisions: get("key_collisions"),
            parse_nanos: get("parse_nanos"),
            extract_nanos: get("extract_nanos"),
            render_nanos: get("render_nanos"),
            hash_nanos: get("hash_nanos"),
            ocr_nanos: get("ocr_nanos"),
            embed_nanos: get("embed_nanos"),
        }
    }

    /// Fraction of analyze calls served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.pages as f64
        }
    }

    /// Sum of all per-stage nanos (parse through embed).
    pub fn stage_nanos(&self) -> u64 {
        self.parse_nanos
            + self.extract_nanos
            + self.render_nanos
            + self.hash_nanos
            + self.ocr_nanos
            + self.embed_nanos
    }

    /// One-line human report, for CLI/stderr surfaces.
    pub fn report_line(&self) -> String {
        let ms = |n: u64| n as f64 / 1e6;
        format!(
            "{} pages ({} cache hits, {} misses, {:.1}% hit rate, {} collisions); \
             parse {:.1}ms, extract {:.1}ms, render {:.1}ms, hash {:.1}ms, ocr {:.1}ms, embed {:.1}ms",
            self.pages,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.key_collisions,
            ms(self.parse_nanos),
            ms(self.extract_nanos),
            ms(self.render_nanos),
            ms(self.hash_nanos),
            ms(self.ocr_nanos),
            ms(self.embed_nanos),
        )
    }
}

/// The single entry point for page analysis: owns the render and OCR
/// configuration, the cache, and the metrics counters. Shared across
/// threads (and consumers) behind an `Arc`.
pub struct PageAnalyzer {
    render: RenderOptions,
    ocr: OcrConfig,
    cache: Option<AnalysisCache>,
    metrics: AnalysisMetrics,
}

impl std::fmt::Debug for PageAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageAnalyzer")
            .field("cache_enabled", &self.cache.is_some())
            .field("cached_artifacts", &self.cached_artifacts())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl Default for PageAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl PageAnalyzer {
    /// Cached analyzer with the default seed and shard count.
    pub fn new() -> Self {
        Self::with_seed(DEFAULT_CACHE_SEED)
    }

    /// Cached analyzer with an explicit content-key seed.
    pub fn with_seed(seed: u64) -> Self {
        PageAnalyzer {
            render: RenderOptions::default(),
            ocr: OcrConfig::default(),
            cache: Some(AnalysisCache::new(seed, DEFAULT_CACHE_SHARDS)),
            metrics: AnalysisMetrics::default(),
        }
    }

    /// Analyzer with the cache disabled: every page runs the full
    /// derivation (the baseline the byte-equality tests compare against).
    pub fn uncached() -> Self {
        PageAnalyzer {
            render: RenderOptions::default(),
            ocr: OcrConfig::default(),
            cache: None,
            metrics: AnalysisMetrics::default(),
        }
    }

    /// Whether a cache fronts this analyzer.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Artifacts currently held by the cache (0 when disabled).
    pub fn cached_artifacts(&self) -> usize {
        self.cache.as_ref().map(AnalysisCache::len).unwrap_or(0)
    }

    /// Analyzes one page, via the cache when possible. The returned
    /// artifact is shared, never recomputed, and identical to what an
    /// uncached analyzer would produce.
    pub fn analyze(&self, html: &str) -> Arc<PageArtifact> {
        self.metrics.pages.inc();
        let Some(cache) = &self.cache else {
            self.metrics.misses.inc();
            return Arc::new(self.derive(content_key(DEFAULT_CACHE_SEED, html.as_bytes()), html));
        };
        let key = content_key(cache.seed, html.as_bytes());
        if let Some(artifact) = cache.lookup(key, html) {
            self.metrics.hits.inc();
            return artifact;
        }
        self.metrics.misses.inc();
        let artifact = Arc::new(self.derive(key, html));
        if cache.insert(key, html, artifact.clone()) {
            self.metrics.collisions.inc();
        }
        artifact
    }

    /// Analyzes one page with the visual derivation forcibly disabled —
    /// the supervised pipeline routes fault-plan-poisoned pages here. The
    /// result is always `degraded` and deliberately bypasses the cache in
    /// both directions, so a poisoned artifact can never be served to (or
    /// shadow) an unpoisoned request for the same HTML. Counts as one
    /// page and one miss, keeping `AnalysisSnapshot::reconciles` exact.
    pub fn analyze_forced_degraded(&self, html: &str) -> Arc<PageArtifact> {
        self.metrics.pages.inc();
        self.metrics.misses.inc();
        let seed = self
            .cache
            .as_ref()
            .map(|c| c.seed)
            .unwrap_or(DEFAULT_CACHE_SEED);
        Arc::new(self.derive_degraded(content_key(seed, html.as_bytes()), html))
    }

    /// Renders a page to a bitmap through the analyzer's single render
    /// path (for ASCII screenshots à la Figure 14). Bitmaps are large, so
    /// they are deliberately *not* retained in artifacts or the cache.
    pub fn screenshot(&self, html: &str) -> Bitmap {
        let t = Instant::now();
        let doc = parse(html);
        AnalysisMetrics::add_nanos(&self.metrics.parse_nanos, t.elapsed());
        let t = Instant::now();
        let bmp = render_page(&doc, &self.render);
        AnalysisMetrics::add_nanos(&self.metrics.render_nanos, t.elapsed());
        bmp
    }

    /// Records embed time from the feature-extraction layer, so the
    /// snapshot covers the full parse→embed stage ladder.
    pub fn note_embed(&self, d: Duration) {
        AnalysisMetrics::add_nanos(&self.metrics.embed_nanos, d);
    }

    /// Reads the counters.
    pub fn metrics(&self) -> AnalysisSnapshot {
        let m = &self.metrics;
        AnalysisSnapshot {
            pages: m.pages.get(),
            cache_hits: m.hits.get(),
            cache_misses: m.misses.get(),
            key_collisions: m.collisions.get(),
            parse_nanos: m.parse_nanos.get(),
            extract_nanos: m.extract_nanos.get(),
            render_nanos: m.render_nanos.get(),
            hash_nanos: m.hash_nanos.get(),
            ocr_nanos: m.ocr_nanos.get(),
            embed_nanos: m.embed_nanos.get(),
        }
    }

    /// The registry the analysis counters live in (`analysis.` scope).
    pub fn telemetry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// The full single-pass derivation (cache miss path). When the
    /// visual half fails — invalid geometry, invalid OCR config, or an
    /// outright panic in render/pHash/OCR — the page *naturally*
    /// degrades to its textual half instead of being dropped.
    fn derive(&self, key: u64, html: &str) -> PageArtifact {
        let t = Instant::now();
        let doc = parse(html);
        AnalysisMetrics::add_nanos(&self.metrics.parse_nanos, t.elapsed());

        let mut artifact = self.derive_textual(key, &doc);
        match self.derive_visual(&doc) {
            Some((image_hash, ocr_text, ocr_tokens)) => {
                artifact.image_hash = image_hash;
                artifact.ocr_text = ocr_text;
                artifact.ocr_tokens = ocr_tokens;
            }
            None => artifact.degraded = true,
        }
        artifact
    }

    /// Textual-only derivation with the visual block pre-degraded (the
    /// forced-poison path skips render/pHash/OCR entirely).
    fn derive_degraded(&self, key: u64, html: &str) -> PageArtifact {
        let t = Instant::now();
        let doc = parse(html);
        AnalysisMetrics::add_nanos(&self.metrics.parse_nanos, t.elapsed());
        let mut artifact = self.derive_textual(key, &doc);
        artifact.degraded = true;
        artifact
    }

    /// The lexical/form/JS half of the derivation; the visual block is
    /// zero-filled for the caller to overwrite or flag.
    fn derive_textual(&self, key: u64, doc: &Document) -> PageArtifact {
        let t = Instant::now();
        let text = extract::extract_text(doc);
        let title = text.title.first().cloned();
        let text_lower = text.joined_lower();
        let lexical_tokens = remove_stopwords(tokenize(&text_lower));

        let forms = extract::extract_forms(doc);
        let mut password_inputs = 0usize;
        let mut text_inputs = 0usize;
        let mut submit_controls = 0usize;
        let mut form_tokens: Vec<String> = Vec::new();
        for f in &forms {
            for ty in &f.input_types {
                match ty.as_str() {
                    "password" => password_inputs += 1,
                    "submit" => submit_controls += 1,
                    _ => text_inputs += 1,
                }
                form_tokens.extend(tokenize(ty));
            }
            for s in f
                .input_names
                .iter()
                .chain(&f.placeholders)
                .chain(&f.submit_texts)
            {
                form_tokens.extend(tokenize(s));
            }
        }
        let form_tokens = remove_stopwords(form_tokens);
        let js = js::scan_document(doc);
        AnalysisMetrics::add_nanos(&self.metrics.extract_nanos, t.elapsed());

        PageArtifact {
            content_key: key,
            title,
            text_lower,
            lexical_tokens,
            form_count: forms.len(),
            password_inputs,
            text_inputs,
            submit_controls,
            form_tokens,
            js,
            image_hash: ImageHash(0),
            ocr_text: String::new(),
            ocr_tokens: Vec::new(),
            degraded: false,
        }
    }

    /// The render → pHash → OCR half. `None` means the page degrades:
    /// fallible entry points reject impossible configs, and a stray
    /// panic anywhere in the visual stack is contained (quietly — the
    /// default panic hook would spam stderr) rather than allowed to kill
    /// a pipeline worker.
    fn derive_visual(&self, doc: &Document) -> Option<(ImageHash, String, Vec<String>)> {
        let _quiet = QuietGuard::new();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let t = Instant::now();
            let screenshot = try_render_page(doc, &self.render).ok()?;
            AnalysisMetrics::add_nanos(&self.metrics.render_nanos, t.elapsed());

            let t = Instant::now();
            let image_hash = perceptual_hash(&screenshot);
            AnalysisMetrics::add_nanos(&self.metrics.hash_nanos, t.elapsed());

            let t = Instant::now();
            let ocr_text = try_recognize(&screenshot, &self.ocr).ok()?.joined();
            let ocr_tokens = remove_stopwords(tokenize(&ocr_text));
            AnalysisMetrics::add_nanos(&self.metrics.ocr_nanos, t.elapsed());
            Some((image_hash, ocr_text, ocr_tokens))
        }))
        .ok()
        .flatten()
    }
}

/// Hamming-space index over the monitored brands' login-page hashes —
/// the "which brand does this page visually imitate?" lookup the snapshot
/// re-classifier and the `page` CLI use. A thin wrapper over
/// [`squatphi_imghash::index::HashIndex`] that maps insertion ids back to
/// brand ids; ties follow the index's insertion-order rule, so the brand
/// inserted first wins at equal distance.
pub struct BrandHashIndex {
    index: squatphi_imghash::index::HashIndex,
    brands: Vec<usize>,
}

/// One brand lookup result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrandMatch {
    /// Brand id (insertion order breaks ties).
    pub brand: usize,
    /// The brand page's perceptual hash.
    pub hash: ImageHash,
    /// Hamming distance from the query page (0..=64).
    pub distance: u32,
}

impl std::fmt::Debug for BrandHashIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrandHashIndex")
            .field("brands", &self.brands.len())
            .finish()
    }
}

impl BrandHashIndex {
    /// Builds the index from `(brand id, login-page hash)` pairs, in
    /// iteration order. Counters land in a private registry; use
    /// [`Self::in_registry`] to share the pipeline's.
    pub fn build<I: IntoIterator<Item = (usize, ImageHash)>>(entries: I) -> BrandHashIndex {
        Self::in_registry(&Registry::new(), entries)
    }

    /// Builds the index with its `phash.index.*` counters registered in
    /// `registry`.
    pub fn in_registry<I: IntoIterator<Item = (usize, ImageHash)>>(
        registry: &Registry,
        entries: I,
    ) -> BrandHashIndex {
        let (brands, hashes): (Vec<usize>, Vec<ImageHash>) = entries.into_iter().unzip();
        let index = squatphi_imghash::index::HashIndex::from_hashes_in(registry, hashes);
        BrandHashIndex { index, brands }
    }

    /// Number of indexed brand pages.
    pub fn len(&self) -> usize {
        self.brands.len()
    }

    /// True when no brand pages were indexed.
    pub fn is_empty(&self) -> bool {
        self.brands.is_empty()
    }

    /// The registry holding this index's `phash.index.*` counters.
    pub fn telemetry(&self) -> &Registry {
        self.index.telemetry()
    }

    /// The visually closest brand page, or `None` on an empty index.
    pub fn nearest_brand(&self, page_hash: &ImageHash) -> Option<BrandMatch> {
        self.index
            .nearest(page_hash, 1)
            .first()
            .map(|n| BrandMatch {
                brand: self.brands[n.id as usize],
                hash: n.hash,
                distance: n.distance,
            })
    }

    /// Every brand page within Hamming `radius`, in insertion order.
    pub fn brands_within(&self, page_hash: &ImageHash, radius: u32) -> Vec<BrandMatch> {
        self.index
            .within(page_hash, radius)
            .into_iter()
            .map(|n| BrandMatch {
                brand: self.brands[n.id as usize],
                hash: n.hash,
                distance: n.distance,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_squat::BrandRegistry;
    use squatphi_web::pages;

    fn sample_page() -> String {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").expect("paypal in registry");
        pages::brand_login_page(brand)
    }

    #[test]
    fn content_key_is_seeded_and_length_aware() {
        assert_eq!(content_key(1, b"abc"), content_key(1, b"abc"));
        assert_ne!(content_key(1, b"abc"), content_key(2, b"abc"));
        assert_ne!(content_key(1, b"abc"), content_key(1, b"abcd"));
        assert_ne!(content_key(1, b""), content_key(1, b"\0"));
    }

    #[test]
    fn cached_hit_returns_shared_artifact() {
        let analyzer = PageAnalyzer::new();
        let html = sample_page();
        let a = analyzer.analyze(&html);
        let b = analyzer.analyze(&html);
        assert!(Arc::ptr_eq(&a, &b), "second analyze must be a cache hit");
        let m = analyzer.metrics();
        assert_eq!((m.pages, m.cache_hits, m.cache_misses), (2, 1, 1));
        assert!(m.reconciles());
        assert_eq!(analyzer.cached_artifacts(), 1);
    }

    #[test]
    fn cached_and_uncached_agree() {
        let cached = PageAnalyzer::new();
        let uncached = PageAnalyzer::uncached();
        let html = sample_page();
        // Two passes so the cached analyzer serves one from the cache.
        for _ in 0..2 {
            let a = cached.analyze(&html);
            let b = uncached.analyze(&html);
            assert_eq!(*a, *b);
        }
        let m = uncached.metrics();
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.pages, m.cache_misses);
        assert!(m.reconciles());
    }

    #[test]
    fn artifact_fields_are_populated() {
        let analyzer = PageAnalyzer::new();
        let a = analyzer.analyze(&sample_page());
        assert!(a.title.is_some());
        assert!(a.text_lower.contains("paypal"));
        assert!(!a.lexical_tokens.is_empty());
        assert!(a.form_count >= 1);
        assert!(a.password_inputs >= 1);
        assert!(!a.form_tokens.is_empty());
        assert!(!a.ocr_text.is_empty());
        let m = analyzer.metrics();
        assert!(m.parse_nanos > 0 || m.extract_nanos > 0 || m.render_nanos > 0);
    }

    #[test]
    fn distinct_pages_occupy_distinct_slots() {
        let analyzer = PageAnalyzer::new();
        // Seeds map onto a smaller template pool, so count the distinct
        // page bodies rather than assuming one per seed.
        let pages: Vec<String> = (0..8)
            .map(|i| pages::benign_page(&format!("b{i}.example.com"), i))
            .collect();
        let distinct: std::collections::HashSet<&str> = pages.iter().map(String::as_str).collect();
        for p in &pages {
            analyzer.analyze(p);
        }
        let m = analyzer.metrics();
        assert!(distinct.len() > 1, "corpus degenerated to one page");
        assert_eq!(m.cache_misses, distinct.len() as u64);
        assert_eq!(analyzer.cached_artifacts(), distinct.len());
        assert!(m.reconciles());
    }

    /// Top-8 pages #13 and #98 of the seed-7, 1,000-URL ground-truth
    /// feed. They differ in the top byte of one 8-byte word and the low
    /// byte of the next; `content_key` only carries a top-byte difference
    /// into the top 5 bits, `rotate_left(5)` lands those on the next
    /// word's low byte, and `13` / `98` cancel there.
    fn colliding_pages() -> [String; 2] {
        ["13", "98"].map(|n| {
            format!(
                "<html><head><title>local sports club</title></head><body>\
                 <h2>local sports club</h2><p>welcome to login-updatepa{n}.web.example \
                 a small blog about local sports club</p><p>updated weekly by volunteers</p>\
                 <a href=\"/archive\">archive</a></body></html>"
            )
        })
    }

    #[test]
    fn colliding_pages_are_both_cached() {
        let [a, b] = colliding_pages();
        assert_eq!(
            content_key(DEFAULT_CACHE_SEED, a.as_bytes()),
            content_key(DEFAULT_CACHE_SEED, b.as_bytes()),
            "the pinned pages no longer collide; find another pair"
        );
        let cached = PageAnalyzer::new();
        let uncached = PageAnalyzer::uncached();
        // Two walks: with one entry per key the pages evicted each other
        // and the second walk missed twice more.
        for _ in 0..2 {
            for page in [&a, &b] {
                assert_eq!(*cached.analyze(page), *uncached.analyze(page));
            }
        }
        let m = cached.metrics();
        assert_eq!((m.cache_misses, m.cache_hits), (2, 2), "misses == distinct");
        assert_eq!(m.key_collisions, 1, "counted once, at the second insert");
        assert_eq!(cached.cached_artifacts(), 2);
        assert!(m.reconciles());
    }

    #[test]
    fn forced_degraded_bypasses_cache_and_zeroes_visuals() {
        let analyzer = PageAnalyzer::new();
        let html = sample_page();
        let full = analyzer.analyze(&html);
        assert!(!full.degraded);
        let degraded = analyzer.analyze_forced_degraded(&html);
        assert!(degraded.degraded);
        assert_eq!(degraded.image_hash, ImageHash(0));
        assert!(degraded.ocr_text.is_empty() && degraded.ocr_tokens.is_empty());
        // The textual half is unaffected by the poison.
        assert_eq!(degraded.lexical_tokens, full.lexical_tokens);
        assert_eq!(degraded.form_count, full.form_count);
        assert_eq!(degraded.content_key, full.content_key);
        // The cache was neither read nor polluted: the full artifact is
        // still what the next plain analyze serves.
        let again = analyzer.analyze(&html);
        assert!(Arc::ptr_eq(&full, &again));
        let m = analyzer.metrics();
        assert!(m.reconciles());
        assert_eq!((m.pages, m.cache_hits, m.cache_misses), (3, 1, 2));
    }

    #[test]
    fn screenshot_matches_direct_render() {
        let analyzer = PageAnalyzer::new();
        let html = sample_page();
        let via_analyzer = analyzer.screenshot(&html);
        let direct = render_page(&parse(&html), &RenderOptions::default());
        assert_eq!(via_analyzer.pixels(), direct.pixels());
    }

    #[test]
    fn report_line_reads_sane() {
        let analyzer = PageAnalyzer::new();
        analyzer.analyze(&sample_page());
        let line = analyzer.metrics().report_line();
        assert!(line.contains("1 pages"), "{line}");
        assert!(line.contains("0 cache hits"), "{line}");
        assert!(line.contains("1 misses"), "{line}");
    }

    #[test]
    fn brand_index_finds_the_imitated_brand() {
        let analyzer = PageAnalyzer::new();
        let reg = BrandRegistry::with_size(8);
        let index = BrandHashIndex::build(reg.brands().iter().map(|b| {
            let page = pages::brand_login_page(b);
            (b.id, analyzer.analyze(&page).image_hash)
        }));
        assert_eq!(index.len(), 8);
        // A brand page queried against the index is its own nearest
        // neighbor at distance 0.
        let paypal = reg.by_label("paypal").unwrap();
        let hash = analyzer
            .analyze(&pages::brand_login_page(paypal))
            .image_hash;
        let m = index.nearest_brand(&hash).expect("non-empty index");
        assert_eq!((m.brand, m.distance), (paypal.id, 0));
        assert!(index
            .brands_within(&hash, 0)
            .iter()
            .any(|m| m.brand == paypal.id));
        // The probe ledger reconciles.
        let snap = index.telemetry().snapshot();
        assert!(squatphi_telemetry::invariants::phash_index_invariants().all_hold(&snap));
        assert_eq!(snap.u64_or_zero("phash.index.inserts"), 8);
    }

    #[test]
    fn empty_brand_index_returns_none() {
        let index = BrandHashIndex::build(std::iter::empty());
        assert!(index.is_empty());
        assert_eq!(index.nearest_brand(&ImageHash(1)), None);
        assert!(index.brands_within(&ImageHash(1), 64).is_empty());
    }
}
