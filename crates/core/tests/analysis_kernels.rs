//! Page-analysis kernels against the loops they replaced.
//!
//! `imghash::perceptual_hash`, `Bitmap::resample`, the OCR row scans and
//! `SpellChecker::correct` were rewritten for speed under the contract
//! that no output bit moves. Two kinds of proof live here:
//!
//! * a **golden digest** of pHash bits + OCR transcript + feature vector
//!   over whole feeds, captured on the commit *before* any kernel
//!   changed — it pins the composed path, OCR included;
//! * **old-vs-new** comparisons against verbatim copies of the replaced
//!   loops ([`oracle`]), over every page those feeds and the conformance
//!   HTML corpus render and every token their OCR emits.
//!
//! CI runs it as `cargo test --release -p squatphi --test analysis_kernels`
//! (a few seconds); the debug build runs the same tests, slower.

use squatphi::artifact::{content_key, PageArtifact};
use squatphi::features::FeatureExtractor;
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_imghash::perceptual_hash;
use squatphi_nlp::spell::BASE_DICTIONARY;
use squatphi_nlp::SpellChecker;
use squatphi_render::{render_page, Bitmap, RenderOptions};
use squatphi_squat::BrandRegistry;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// The replaced loops, copied from the parent commit. Only the receiver
/// changed (`self.pixels[..]` reads became `src.pixels()[..]`, the output
/// write a `put` on a blank bitmap).
mod oracle {
    use squatphi_imghash::ImageHash;
    use squatphi_render::Bitmap;

    /// 2-D DCT-II of an n×n matrix (naive O(n³), fine for n = 32).
    fn dct2d(input: &[f64], n: usize) -> Vec<f64> {
        // Separable: rows then columns.
        let mut rows = vec![0.0; n * n];
        for y in 0..n {
            for u in 0..n {
                let mut sum = 0.0;
                for x in 0..n {
                    sum += input[y * n + x]
                        * ((std::f64::consts::PI / n as f64) * (x as f64 + 0.5) * u as f64).cos();
                }
                rows[y * n + u] = sum;
            }
        }
        let mut out = vec![0.0; n * n];
        for u in 0..n {
            for v in 0..n {
                let mut sum = 0.0;
                for y in 0..n {
                    sum += rows[y * n + u]
                        * ((std::f64::consts::PI / n as f64) * (y as f64 + 0.5) * v as f64).cos();
                }
                out[v * n + u] = sum;
            }
        }
        out
    }

    /// `perceptual_hash` over the full transform, given the thumbnail.
    pub fn perceptual_hash(small: &Bitmap) -> ImageHash {
        const N: usize = 32;
        let input: Vec<f64> = small.pixels().iter().map(|&p| p as f64).collect();
        let coeffs = dct2d(&input, N);
        // Top-left 8×8 block, skipping the DC coefficient for the median.
        let mut block = [0.0f64; 64];
        for y in 0..8 {
            for x in 0..8 {
                block[y * 8 + x] = coeffs[y * N + x];
            }
        }
        let mut sorted: Vec<f64> = block[1..].to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite DCT coefficients"));
        let median = sorted[sorted.len() / 2];
        let mut bits = 0u64;
        for (i, &c) in block.iter().enumerate() {
            if c > median {
                bits |= 1 << i;
            }
        }
        ImageHash(bits)
    }

    /// `Bitmap::resample` as one nested loop per target cell.
    pub fn resample(src: &Bitmap, w: usize, h: usize) -> Bitmap {
        let mut out = Bitmap::new(w, h);
        if src.width() == 0 || src.height() == 0 || w == 0 || h == 0 {
            return out;
        }
        // Box-average per target cell for stability.
        for ty in 0..h {
            let y0 = ty * src.height() / h;
            let y1 = (((ty + 1) * src.height()).div_ceil(h)).max(y0 + 1);
            for tx in 0..w {
                let x0 = tx * src.width() / w;
                let x1 = (((tx + 1) * src.width()).div_ceil(w)).max(x0 + 1);
                let mut sum = 0usize;
                let mut n = 0usize;
                for y in y0..y1.min(src.height()) {
                    for x in x0..x1.min(src.width()) {
                        sum += src.pixels()[y * src.width() + x] as usize;
                        n += 1;
                    }
                }
                out.put(tx, ty, (sum / n.max(1)) as u8);
            }
        }
        out
    }

    /// Levenshtein distance capped at `budget`; `None` when it exceeds it.
    fn bounded_levenshtein(a: &str, b: &str, budget: usize) -> Option<usize> {
        let a: Vec<u8> = a.bytes().collect();
        let b: Vec<u8> = b.bytes().collect();
        if a.len().abs_diff(b.len()) > budget {
            return None;
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            let mut row_min = cur[0];
            for (j, &cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
                row_min = row_min.min(cur[j + 1]);
            }
            if row_min > budget {
                return None;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        (prev[b.len()] <= budget).then_some(prev[b.len()])
    }

    /// `SpellChecker::correct` as a scan of the whole (sorted, deduplicated)
    /// word list.
    pub fn correct<'a>(words: &'a [String], word: &'a str) -> &'a str {
        if word.len() <= 2 || words.binary_search_by(|w| w.as_str().cmp(word)).is_ok() {
            return word;
        }
        let budget = if word.len() <= 4 { 1 } else { 2 };
        let mut best: Option<(&str, usize)> = None;
        for w in words {
            // Cheap length gate.
            if w.len().abs_diff(word.len()) > budget {
                continue;
            }
            let d = bounded_levenshtein(word, w, budget);
            if let Some(d) = d {
                let better = match best {
                    None => true,
                    Some((bw, bd)) => d < bd || (d == bd && (w.len(), w.as_str()) < (bw.len(), bw)),
                };
                if better {
                    best = Some((w, d));
                }
            }
        }
        best.map(|(w, _)| w).unwrap_or(word)
    }
}

const SEEDS: [u64; 3] = [2018, 7, 2020];
const FEED_URLS: usize = 1_000;

const CONFORMANCE_HTML: [&str; 3] = [
    include_str!("../../conformance/corpus/html/login_form.html"),
    include_str!("../../conformance/corpus/html/broken_nesting.html"),
    include_str!("../../conformance/corpus/html/evasive_entities.html"),
];

/// One feed entry: its HTML and its analysed artifact.
type Page = (String, Arc<PageArtifact>);

struct Corpus {
    registry: BrandRegistry,
    extractor: FeatureExtractor,
    /// Per seed, every feed entry.
    feeds: Vec<(u64, Vec<Page>)>,
}

/// The feeds, analysed once for all tests (through the production path).
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let registry = BrandRegistry::paper();
        let extractor = FeatureExtractor::new(&registry);
        let feeds = SEEDS
            .iter()
            .map(|&seed| {
                let config = FeedConfig {
                    total_urls: FEED_URLS,
                    seed,
                };
                let feed = GroundTruthFeed::generate(&registry, &config);
                let htmls: Vec<&str> = feed.entries.iter().map(|e| e.html.as_str()).collect();
                let artifacts = extractor.analyze_batch(&htmls, 2);
                let htmls = htmls.into_iter().map(String::from);
                (seed, htmls.zip(artifacts).collect())
            })
            .collect();
        Corpus {
            registry,
            extractor,
            feeds,
        }
    })
}

/// Captured on the parent commit (the `dct2d` / nested-loop / `get`-scan /
/// linear-spell kernels) and equal to the constants ISSUE 19 quotes: pHash
/// bits, OCR transcript and the full feature vector of every feed entry,
/// folded through `content_key` from `h = seed`. They stand for as long
/// as the checkpoint `VERSION`s do.
#[test]
fn golden_digest_matches_the_pre_rewrite_kernels() {
    let golden = [
        0xfae3_cdfc_196e_49dd_u64,
        0x338b_d1e7_167d_76d3,
        0xc534_4c3e_5307_0677,
    ];
    let corpus = corpus();
    for ((seed, pages), want) in corpus.feeds.iter().zip(golden) {
        assert_eq!(pages.len(), FEED_URLS + 3, "feed size moved");
        let mut h = *seed;
        for (_, a) in pages {
            h = content_key(h, &a.image_hash.to_bits().to_le_bytes());
            h = content_key(h, a.ocr_text.as_bytes());
            for &(index, value) in corpus.extractor.extract_from_artifact(a).entries() {
                h = content_key(h, &(index as u64).to_le_bytes());
                h = content_key(h, &value.to_bits().to_le_bytes());
            }
        }
        assert_eq!(h, want, "seed {seed}: digest {h:016x}, golden {want:016x}");
    }
}

/// Seeded noise, dense enough that box means take many values.
fn noise(w: usize, h: usize, state: &mut u64) -> Bitmap {
    let mut b = Bitmap::new(w, h);
    for y in 0..h {
        for x in 0..w {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.put(x, y, (*state >> 56) as u8);
        }
    }
    b
}

#[test]
fn phash_and_resample_equal_the_replaced_loops_on_every_page() {
    let opts = RenderOptions::default();
    let feed_pages = corpus().feeds.iter().flat_map(|(_, pages)| pages);
    let distinct: BTreeSet<&str> = feed_pages
        .map(|(html, _)| html.as_str())
        .chain(CONFORMANCE_HTML)
        .collect();
    assert!(distinct.len() > 2_000, "only {} pages", distinct.len());
    for html in distinct {
        let page = render_page(&squatphi_html::parse(html), &opts);
        let small = page.resample(32, 32);
        assert_eq!(small, oracle::resample(&page, 32, 32), "resample: {html}");
        assert_eq!(
            perceptual_hash(&page),
            oracle::perceptual_hash(&small),
            "pHash: {html}"
        );
    }
}

#[test]
fn resample_equals_the_nested_loop_on_awkward_geometries() {
    let mut state = 0x5eed_u64;
    // Source sizes that do not divide the targets, a prime height, fewer
    // source than target pixels (upsampling), single pixels, empties.
    let sources = [
        (360, 517),
        (360, 520),
        (33, 31),
        (7, 5),
        (1, 1),
        (1, 40),
        (40, 1),
        (0, 9),
        (9, 0),
    ];
    let targets = [(32, 32), (8, 8), (9, 8), (1, 1), (64, 3), (0, 4), (4, 0)];
    for (sw, sh) in sources {
        let src = noise(sw, sh, &mut state);
        for (w, h) in targets {
            assert_eq!(
                src.resample(w, h),
                oracle::resample(&src, w, h),
                "{sw}x{sh} -> {w}x{h}"
            );
        }
        assert_eq!(
            perceptual_hash(&src),
            oracle::perceptual_hash(&oracle::resample(&src, 32, 32)),
            "pHash of {sw}x{sh} noise"
        );
    }
    // A blank page: every coefficient ties with the median.
    let blank = Bitmap::new(360, 520);
    assert_eq!(
        perceptual_hash(&blank),
        oracle::perceptual_hash(&blank.resample(32, 32))
    );
}

#[test]
fn spell_index_equals_the_linear_scan_on_every_ocr_token() {
    let corpus = corpus();
    let labels = corpus.registry.brands().iter().map(|b| b.label.as_str());
    let spell = SpellChecker::new(labels.clone());
    // The checker's word list, rebuilt as `SpellChecker::new` builds it.
    let mut words: Vec<String> = BASE_DICTIONARY
        .iter()
        .copied()
        .chain(labels)
        .map(str::to_ascii_lowercase)
        .filter(|w| !w.is_empty())
        .collect();
    words.sort();
    words.dedup();
    assert_eq!(words.len(), spell.len());

    let pages = corpus.feeds.iter().flat_map(|(_, pages)| pages);
    let tokens: BTreeSet<&str> = pages
        .flat_map(|(_, a)| a.ocr_tokens.iter().chain(&a.lexical_tokens))
        .map(String::as_str)
        .collect();
    let mut corrected = 0;
    for token in &tokens {
        let want = oracle::correct(&words, token);
        assert_eq!(spell.correct(token), want, "token {token:?}");
        corrected += usize::from(want != *token);
    }
    // The comparison is only worth something if both outcomes occur.
    assert!(
        tokens.len() > 1_000,
        "only {} distinct tokens",
        tokens.len()
    );
    assert!(corrected > 100, "only {corrected} tokens were corrected");
    assert!(corrected < tokens.len() / 2, "{corrected} tokens corrected");
}
