//! `page_audit`: the `squatphi page` path, one page at a time on one
//! thread — analyze → embed → score — as a latency distribution, and the
//! artifact cache used two ways.
//!
//! A pass builds a fresh `FeatureExtractor` and walks the feed's top-8
//! pages twice: **cold** (every page misses; the cache is pure overhead)
//! and **warm** (every page hits: lookup + HTML verify + embed). A cache
//! change that helps one and costs the other shows here; `repro_batch`
//! (~25 % hits) hides it.

use super::{digest, timed, Checks, Metrics, Scale, Workload};
use crate::spec::THREADS;
use crate::stats::{median, summarize, Summary};
use crate::tracer::Tracer;
use squatphi::{AnalysisSnapshot, FeatureExtractor};
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_html::extract::{extract_forms, extract_text};
use squatphi_imghash::perceptual_hash;
use squatphi_ml::{Classifier, RandomForest};
use squatphi_nlp::SparseVec;
use squatphi_ocr::{recognize, OcrConfig};
use squatphi_render::{render_page, RenderOptions};
use squatphi_squat::BrandRegistry;
use std::collections::HashSet;
use std::time::Instant;

/// 1,000 reported URLs give ~590 top-8 pages (~98 % distinct): a pass is
/// ~1.4 s (cold ~1 s, warm ~0.4 s), so a run fits eight and pools ~5k
/// cold latencies.
const FEED_URLS: usize = 1_000;

/// The scoring model is fitted on every `TRAIN_STRIDE`-th page: which
/// forest scores the pages does not matter to the path's cost, fitting
/// it on all of them would double set-up.
const TRAIN_STRIDE: usize = 4;

/// Cross-validation folds of the `ml.cv_s` kernel (the paper's 10).
const CV_FOLDS: usize = 10;

/// The workload's input: pages and a fitted model.
pub struct PageAudit {
    registry: BrandRegistry,
    feed: FeedConfig,
    pages: Vec<(String, bool)>,
    distinct: usize,
    model: RandomForest,
    digest: u64,
    seed: u64,
}

/// One cold or warm walk over the pages.
struct Walk {
    latencies_s: Vec<f64>,
    outputs: Vec<(SparseVec, f64)>,
    degraded: usize,
}

/// What a pass returns.
pub struct Raw {
    cold: Walk,
    warm: Walk,
    analysis: AnalysisSnapshot,
}

/// What is kept of a pass.
pub struct Pass {
    cold_latencies_s: Vec<f64>,
    cold_s: f64,
    warm_s: f64,
    analysis: AnalysisSnapshot,
}

impl PageAudit {
    fn walk(&self, fx: &FeatureExtractor) -> Walk {
        let mut walk = Walk {
            latencies_s: Vec::with_capacity(self.pages.len()),
            outputs: Vec::with_capacity(self.pages.len()),
            degraded: 0,
        };
        for (html, _) in &self.pages {
            let t = Instant::now();
            let artifact = fx.analyzer().analyze(html);
            let vector = fx.extract_from_artifact(&artifact);
            let score = self.model.score(&vector);
            walk.latencies_s.push(t.elapsed().as_secs_f64());
            walk.degraded += usize::from(artifact.degraded);
            walk.outputs.push((vector, score));
        }
        walk
    }

    fn htmls(&self) -> Vec<&str> {
        self.pages.iter().map(|(h, _)| h.as_str()).collect()
    }
}

impl Workload for PageAudit {
    const NAME: &'static str = "page_audit";
    type Raw = Raw;
    type Pass = Pass;

    fn setup(seed: u64, scale: Scale) -> Self {
        let registry = BrandRegistry::paper();
        let feed = FeedConfig {
            total_urls: scale.pick(FEED_URLS, 150),
            seed,
        };
        let pages: Vec<(String, bool)> = GroundTruthFeed::generate(&registry, &feed)
            .top8(&registry)
            .into_iter()
            .map(|e| (e.html.clone(), e.still_phishing))
            .collect();
        let distinct = pages
            .iter()
            .map(|(h, _)| h.as_str())
            .collect::<HashSet<_>>()
            .len();
        let train: Vec<(&str, bool)> = pages
            .iter()
            .step_by(TRAIN_STRIDE)
            .map(|(h, y)| (h.as_str(), *y))
            .collect();
        let dataset = FeatureExtractor::new(&registry).build_dataset(&train, THREADS);
        let model = squatphi::train::fit_final_model(&dataset, seed);
        PageAudit {
            digest: digest(seed, pages.iter().map(|(h, _)| h.as_bytes())),
            registry,
            feed,
            pages,
            distinct,
            model,
            seed,
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("feed_urls", self.feed.total_urls as u64),
            ("pages", self.pages.len() as u64),
            ("distinct_pages", self.distinct as u64),
            ("brands", self.registry.len() as u64),
        ]
    }

    fn pass(&self, tr: &mut Tracer) -> Raw {
        let fx = tr.span("features.extractor_new", |_| {
            FeatureExtractor::new(&self.registry)
        });
        let cold = tr.span("page.cold", |_| self.walk(&fx));
        let warm = tr.span("page.warm", |_| self.walk(&fx));
        Raw {
            cold,
            warm,
            analysis: fx.analyzer().metrics(),
        }
    }

    fn inspect(&self, raw: Raw, checks: &mut Checks) -> Pass {
        let n = self.pages.len() as u64;
        let differing = raw
            .cold
            .outputs
            .iter()
            .zip(&raw.warm.outputs)
            .filter(|((cv, cs), (wv, ws))| cv != wv || cs.to_bits() != ws.to_bits())
            .count();
        checks.ops(
            n,
            differing as u64,
            "pages whose warm vector or score differs from cold",
        );
        checks.ops(
            2 * n,
            (raw.cold.degraded + raw.warm.degraded) as u64,
            "degraded artifacts",
        );
        let a = &raw.analysis;
        checks.require(a.reconciles(), "AnalysisSnapshot::reconciles is false");
        checks.require(
            a.cache_misses == self.distinct as u64 && a.cache_hits == 2 * n - self.distinct as u64,
            &format!(
                "{} misses / {} hits over 2 x {n} pages, {} distinct",
                a.cache_misses, a.cache_hits, self.distinct
            ),
        );
        Pass {
            cold_s: raw.cold.latencies_s.iter().sum(),
            warm_s: raw.warm.latencies_s.iter().sum(),
            cold_latencies_s: raw.cold.latencies_s,
            analysis: raw.analysis,
        }
    }

    /// Page requests: every page once cold, once warm.
    fn items(&self, _: &Pass) -> u64 {
        2 * self.pages.len() as u64
    }

    fn finish(&self, passes: &[Pass], _: &mut Checks, detail: &mut Metrics) {
        let latency = page_metrics(self.pages.len(), passes, detail);
        detail.set("page.latency_samples", latency.n as f64, "count");
        if let Some((label, _)) = latency.tail {
            let percentile: f64 = label[1..].parse().expect("tail labels are p<number>");
            detail.set("page.tail_percentile", percentile, "%");
        }
    }

    fn layers(&self, tr: &mut Tracer, traced: &Pass, _: &mut Checks, layers: &mut Metrics) {
        let n = self.pages.len() as f64;
        page_metrics(self.pages.len(), std::slice::from_ref(traced), layers);
        let a = &traced.analysis;
        layers.set("artifact.hit_rate", a.hit_rate(), "ratio");
        layers.set("artifact.collisions", a.key_collisions as f64, "count");
        // The program's own stage clocks for the same pages, beside the
        // outside spans below.
        for (name, nanos) in [
            ("artifact.parse_ns", a.parse_nanos),
            ("artifact.extract_ns", a.extract_nanos),
            ("artifact.render_ns", a.render_nanos),
            ("artifact.hash_ns", a.hash_nanos),
            ("artifact.ocr_ns", a.ocr_nanos),
            ("artifact.embed_ns", a.embed_nanos),
        ] {
            tr.count(name, nanos as f64);
        }

        let (_, feed_s) = tr.timed("feeds.generate", || {
            GroundTruthFeed::generate(&self.registry, &self.feed)
        });
        layers.set("feeds.generate_ms", feed_s * 1e3, "ms");

        // One span per stage over all pages, each stage consuming the
        // previous one's output as the analyzer does.
        let render_opts = RenderOptions::default();
        let ocr_cfg = OcrConfig::default();
        let htmls = self.htmls();
        let (docs, parse_s) = tr.timed("html.parse", || {
            htmls
                .iter()
                .map(|h| squatphi_html::parse(h))
                .collect::<Vec<_>>()
        });
        let (_, extract_s) = tr.timed("html.extract", || {
            for doc in &docs {
                std::hint::black_box((extract_text(doc), extract_forms(doc)));
            }
        });
        let mut render_s = 0.0;
        let mut phash_s = 0.0;
        let mut ocr_s = 0.0;
        // Bitmaps are large: render, hash and OCR one page at a time.
        tr.span("visual", |_| {
            for doc in &docs {
                let (bitmap, s) = timed(|| render_page(doc, &render_opts));
                render_s += s;
                phash_s += timed(|| std::hint::black_box(perceptual_hash(&bitmap))).1;
                ocr_s += timed(|| std::hint::black_box(recognize(&bitmap, &ocr_cfg))).1;
            }
        });
        drop(docs);
        layers.set("html.parse_us_per_page", parse_s * 1e6 / n, "us");
        layers.set("html.extract_us_per_page", extract_s * 1e6 / n, "us");
        layers.set("render.us_per_page", render_s * 1e6 / n, "us");
        layers.set("imghash.phash_us_per_page", phash_s * 1e6 / n, "us");
        layers.set("ocr.us_per_page", ocr_s * 1e6 / n, "us");

        // core::artifact: analyze alone, all-miss then all-hit.
        let fx = FeatureExtractor::new(&self.registry);
        let (artifacts, miss_s) = tr.timed("artifact.analyze_miss", || {
            htmls
                .iter()
                .map(|h| fx.analyzer().analyze(h))
                .collect::<Vec<_>>()
        });
        let (_, hit_s) = tr.timed("artifact.analyze_hit", || {
            for h in &htmls {
                std::hint::black_box(fx.analyzer().analyze(h));
            }
        });
        layers.set("artifact.analyze_miss_us", miss_s * 1e6 / n, "us");
        layers.set("artifact.analyze_hit_us", hit_s * 1e6 / n, "us");
        let (vectors, embed_s) = tr.timed("nlp.embed", || {
            artifacts
                .iter()
                .map(|a| fx.extract_from_artifact(a))
                .collect::<Vec<_>>()
        });
        layers.set("nlp.embed_us_per_page", embed_s * 1e6 / n, "us");
        let (_, score_s) = tr.timed("ml.score", || {
            for v in &vectors {
                std::hint::black_box(self.model.score(v));
            }
        });
        layers.set("ml.score_us_per_page", score_s * 1e6 / n, "us");
        drop((artifacts, vectors));

        // core::features: the batch executor at two threads and at one,
        // each on a cold cache.
        for (name, span, threads) in [
            (
                "features.batch_pages_per_s",
                "features.extract_batch",
                THREADS,
            ),
            (
                "features.batch_t1_pages_per_s",
                "features.extract_batch_t1",
                1,
            ),
        ] {
            let fx = FeatureExtractor::new(&self.registry);
            let (_, s) = tr.timed(span, || fx.extract_batch(&htmls, threads));
            layers.set(name, n / s, "1/s");
        }

        // ml: cross-validation and the final fit on all pages.
        let labelled: Vec<(&str, bool)> =
            self.pages.iter().map(|(h, y)| (h.as_str(), *y)).collect();
        let dataset = fx.build_dataset(&labelled, THREADS);
        let (_, cv_s) = tr.timed("ml.cross_validate", || {
            squatphi::train::train_and_evaluate(&dataset, CV_FOLDS, self.seed)
        });
        layers.set("ml.cv_s", cv_s, "s");
        let (_, fit_s) = tr.timed("ml.fit", || {
            squatphi::train::fit_final_model(&dataset, self.seed)
        });
        layers.set("ml.fit_s", fit_s, "s");
    }
}

/// The path as its user sees it: pages per second cold and warm, and the
/// cold per-page latency pooled over `passes` (median, and the highest
/// percentile with at least ten samples beyond it).
fn page_metrics(pages: usize, passes: &[Pass], out: &mut Metrics) -> Summary {
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set(
        "page.cold_pages_per_s",
        pages as f64 / med(|p| p.cold_s),
        "1/s",
    );
    out.set(
        "page.warm_pages_per_s",
        pages as f64 / med(|p| p.warm_s),
        "1/s",
    );
    let pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cold_latencies_s.iter().map(|s| s * 1e3))
        .collect();
    let summary = summarize(&pooled);
    out.set("page.p50_ms", summary.p50, "ms");
    // Too few samples for any tail (smoke sizes): report the maximum.
    let tail = summary
        .tail
        .map(|(_, v)| v)
        .unwrap_or_else(|| pooled.iter().copied().fold(0.0, f64::max));
    out.set("page.tail_ms", tail, "ms");
    summary
}
