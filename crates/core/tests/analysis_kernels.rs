//! Page-analysis kernels against the loops they replaced.
//!
//! `imghash::perceptual_hash`, `Bitmap::resample`, OCR's row scans and
//! cell sampling and `SpellChecker::correct` were rewritten for speed
//! under the contract that no output bit moves. Two kinds of proof live
//! here:
//!
//! * a **golden digest** of pHash bits + OCR transcript + feature vector
//!   over whole feeds, captured on the commit *before* any kernel
//!   changed — it pins the composed path, OCR included;
//! * **old-vs-new** comparisons against verbatim copies of the replaced
//!   loops ([`oracle`]), over every page those feeds and the conformance
//!   HTML corpus render (OCR also on each after a noise attack, and on
//!   random bitmaps) and every token their OCR emits.
//!
//! CI runs it as `cargo test --release -p squatphi --test analysis_kernels`
//! (~12 s on two cores); the debug build runs the same tests, slower, and
//! attacks a quarter of the pages.

use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi::artifact::{content_key, PageArtifact};
use squatphi::features::FeatureExtractor;
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_imghash::perceptual_hash;
use squatphi_nlp::spell::BASE_DICTIONARY;
use squatphi_nlp::SpellChecker;
use squatphi_ocr::attack::{perturb, NoiseBudget};
use squatphi_ocr::{recognize, OcrConfig, OcrResult};
use squatphi_render::font::{charset_char, CHARSET, GLYPH_H, GLYPH_W};
use squatphi_render::{render_page, Bitmap, RenderOptions};
use squatphi_squat::BrandRegistry;
use squatphi_telemetry::par_map;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// The replaced loops, copied from the commits that replaced them. Only
/// the receiver changed (`self.pixels[..]` reads became `src.pixels()[..]`,
/// the output write a `put` on a blank bitmap); the OCR path is verbatim.
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

    /// OCR's `recognize` path: one bounds-checked `get` per pixel of every
    /// cell at every grid phase, and every template scanned per cell.
    pub mod ocr {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        use squatphi_ocr::{OcrConfig, OcrLine, OcrResult};
        use squatphi_render::font::{charset_char, ADVANCE, CHARSET, GLYPHS, GLYPH_H, GLYPH_W};
        use squatphi_render::Bitmap;
        use std::sync::OnceLock;

        const CONFUSION_GROUPS: &[&str] = &["o0", "l1i", "rn", "cl", "vu", "s5", "gq", "b8", "z2"];

        /// Runs OCR over a bitmap.
        pub fn recognize(bmp: &Bitmap, config: &OcrConfig) -> OcrResult {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut lines = Vec::new();

            // Find text bands: contiguous runs of rows containing ink.
            let mut y = 0usize;
            while y < bmp.height() {
                if !row_has_ink(bmp, y, config.threshold) {
                    y += 1;
                    continue;
                }
                let band_top = y;
                while y < bmp.height() && row_has_ink(bmp, y, config.threshold) {
                    y += 1;
                }
                let band_h = y - band_top;
                // Try renderer scales; a band of height ~7*s belongs to scale s.
                let scale = (band_h / GLYPH_H).clamp(1, 4);
                if band_h < GLYPH_H {
                    continue; // sub-glyph noise
                }
                if let Some(text) = read_band(bmp, band_top, scale, config, &mut rng) {
                    if !text.trim().is_empty() {
                        lines.push(OcrLine {
                            text,
                            y: band_top,
                            scale,
                        });
                    }
                }
            }
            OcrResult { lines }
        }

        /// Row `y` (in bounds) as one slice of the pixel buffer.
        fn row(bmp: &Bitmap, y: usize) -> &[u8] {
            &bmp.pixels()[y * bmp.width()..(y + 1) * bmp.width()]
        }

        fn row_has_ink(bmp: &Bitmap, y: usize, threshold: u8) -> bool {
            // A max reduction vectorises; a short-circuiting `any` does not.
            let darkest = row(bmp, y).iter().copied().max();
            darkest.is_some_and(|p| p >= threshold)
        }

        /// Leftmost column with ink in rows `top..top + rows` (clipped to the
        /// bitmap): the smallest first-ink position of any of those rows.
        fn leftmost_ink(bmp: &Bitmap, top: usize, rows: usize, threshold: u8) -> Option<usize> {
            (top..(top + rows).min(bmp.height()))
                .filter_map(|y| row(bmp, y).iter().position(|&p| p >= threshold))
                .min()
        }

        /// Reads one band as a line of glyphs at `scale`, trying several grid
        /// phases: glyphs like `i` have a blank leftmost column, so the first ink
        /// pixel does not necessarily sit on the glyph-cell boundary. The phase
        /// producing the fewest unrecognized cells wins.
        fn read_band(
            bmp: &Bitmap,
            top: usize,
            scale: usize,
            config: &OcrConfig,
            rng: &mut StdRng,
        ) -> Option<String> {
            let ink_left = leftmost_ink(bmp, top, GLYPH_H * scale, config.threshold)?;
            let mut best: Option<(usize, String)> = None;
            for phase in 0..GLYPH_W {
                let start = match ink_left.checked_sub(phase * scale) {
                    Some(s) => s,
                    None => break,
                };
                if let Some(text) = read_band_at(bmp, start, top, scale, config) {
                    let unknowns = text.chars().filter(|&c| c == '?').count();
                    let better = match &best {
                        None => true,
                        Some((u, _)) => unknowns < *u,
                    };
                    if better {
                        best = Some((unknowns, text));
                    }
                    if matches!(best, Some((0, _))) {
                        break;
                    }
                }
            }
            let (_, text) = best?;
            Some(apply_noise_line(&text, config, rng))
        }

        /// Reads a band with the glyph grid anchored at `left` (no noise).
        fn read_band_at(
            bmp: &Bitmap,
            left: usize,
            top: usize,
            scale: usize,
            config: &OcrConfig,
        ) -> Option<String> {
            let mut out = String::new();
            let mut x = left;
            let advance = ADVANCE * scale;
            let mut blank_run = 0usize;
            while x + GLYPH_W * scale <= bmp.width() {
                let cell = sample_cell(bmp, x, top, scale, config.threshold);
                if cell == [0u8; GLYPH_H] {
                    blank_run += 1;
                    if blank_run > 24 {
                        break; // end of line content
                    }
                    // A blank cell inside a line is a space (the renderer's space
                    // glyph occupies exactly one cell).
                    if blank_run == 1 && !out.is_empty() && !out.ends_with(' ') {
                        out.push(' ');
                    }
                    x += advance;
                    continue;
                }
                blank_run = 0;
                out.push(match_glyph(&cell, config.mismatch_budget));
                x += advance;
            }
            Some(out.trim_end().to_string())
        }

        /// Applies the recognition-error model to a whole line.
        fn apply_noise_line(text: &str, config: &OcrConfig, rng: &mut StdRng) -> String {
            text.chars()
                .map(|c| {
                    if c == ' ' {
                        c
                    } else {
                        apply_noise(c, config, rng)
                    }
                })
                .collect()
        }

        /// Samples a 5×7 cell at (x, top) with box-downsampling for scale > 1.
        fn sample_cell(
            bmp: &Bitmap,
            x: usize,
            top: usize,
            scale: usize,
            threshold: u8,
        ) -> [u8; GLYPH_H] {
            let mut cell = [0u8; GLYPH_H];
            for (gy, row) in cell.iter_mut().enumerate() {
                for gx in 0..GLYPH_W {
                    // Majority vote over the scale×scale block.
                    let mut ink = 0usize;
                    for dy in 0..scale {
                        for dx in 0..scale {
                            if bmp.get(x + gx * scale + dx, top + gy * scale + dy) >= threshold {
                                ink += 1;
                            }
                        }
                    }
                    if ink * 2 >= scale * scale {
                        *row |= 1 << (GLYPH_W - 1 - gx);
                    }
                }
            }
            cell
        }

        /// A 5×7 cell as one word, a row per byte, so a template comparison is
        /// one XOR and one popcount.
        fn pack(cell: &[u8; GLYPH_H]) -> u64 {
            cell.iter().fold(0, |word, &row| word << 8 | u64::from(row))
        }

        /// Best-matching glyph under the mismatch budget; `?` when nothing fits.
        fn match_glyph(cell: &[u8; GLYPH_H], budget: u32) -> char {
            static ATLAS: OnceLock<Vec<(char, u64)>> = OnceLock::new();
            let atlas = ATLAS.get_or_init(|| {
                let glyphs = GLYPHS.iter().enumerate();
                let packed = glyphs.map(|(i, g)| (charset_char(i), pack(g)));
                packed.filter(|&(c, _)| c != ' ').collect()
            });
            let cell = pack(cell);
            let mut best = ('?', u32::MAX);
            for &(c, glyph) in atlas {
                let mismatch = (cell ^ glyph).count_ones();
                if mismatch < best.1 {
                    best = (c, mismatch);
                }
            }
            if best.1 <= budget {
                best.0
            } else {
                '?'
            }
        }

        /// Error model: with probability `char_error_rate`, swap the character for
        /// a confusable neighbor (or drop it for characters with no group).
        fn apply_noise(c: char, config: &OcrConfig, rng: &mut StdRng) -> char {
            if config.char_error_rate <= 0.0 || !rng.gen_bool(config.char_error_rate.min(1.0)) {
                return c;
            }
            for group in CONFUSION_GROUPS {
                if let Some(pos) = group.find(c) {
                    let others: Vec<char> = group
                        .chars()
                        .enumerate()
                        .filter(|(i, _)| *i != pos)
                        .map(|(_, g)| g)
                        .collect();
                    if !others.is_empty() {
                        return others[rng.gen_range(0..others.len())];
                    }
                }
            }
            // No confusion group: nudge within the charset.
            let idx = CHARSET.find(c).unwrap_or(0);
            charset_char((idx + 1) % (CHARSET.len() - 1))
        }
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
        // 1,000-row bands: several folds of the `u16` column lanes.
        (3, 2_000),
    ];
    let targets = [
        (32, 32),
        (8, 8),
        (9, 8),
        (1, 1),
        (64, 3),
        (2, 2),
        (0, 4),
        (4, 0),
    ];
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

/// OCR without noise and with the default 3 % error model.
fn ocr_configs() -> [OcrConfig; 2] {
    let noiseless = OcrConfig {
        char_error_rate: 0.0,
        ..OcrConfig::default()
    };
    [noiseless, OcrConfig::default()]
}

fn assert_ocr_equals_the_oracle(bmp: &Bitmap, config: &OcrConfig, what: &str) -> OcrResult {
    let got = recognize(bmp, config);
    assert_eq!(got, oracle::ocr::recognize(bmp, config), "OCR: {what}");
    got
}

#[test]
fn ocr_equals_the_replaced_loops_on_every_page_clean_and_attacked() {
    let opts = RenderOptions::default();
    let feed_pages = corpus().feeds.iter().flat_map(|(_, pages)| pages);
    let distinct: BTreeSet<&str> = feed_pages
        .map(|(html, _)| html.as_str())
        .chain(CONFORMANCE_HTML)
        .collect();
    let budgets = [
        ("subtle", NoiseBudget::subtle()),
        ("moderate", NoiseBudget::moderate()),
        ("heavy", NoiseBudget::heavy()),
    ];
    let pages: Vec<&str> = distinct.into_iter().collect();
    // Every page is attacked in the release build CI runs; an unoptimised
    // build, where `perturb` and the oracle cost ~15x more, attacks every
    // fourth page.
    let attack_every = if cfg!(debug_assertions) { 4 } else { 1 };
    // Unknown cells are what make `read_band` try another grid phase.
    let unknowns = par_map(pages.len(), 2, 16, |i| {
        let page = render_page(&squatphi_html::parse(pages[i]), &opts);
        let budgets = if i % attack_every == 0 {
            &budgets[..]
        } else {
            &[]
        };
        let attacked: Vec<_> = budgets
            .iter()
            .map(|&(name, budget)| (name, perturb(&page, budget, i as u64)))
            .collect();
        let mut unknowns = [0usize; 4];
        for config in &ocr_configs() {
            let clean = assert_ocr_equals_the_oracle(&page, config, pages[i]);
            unknowns[0] += clean.joined().matches('?').count();
            for (n, (name, bmp)) in attacked.iter().enumerate() {
                let what = format!("{name} attack on {}", pages[i]);
                let out = assert_ocr_equals_the_oracle(bmp, config, &what);
                unknowns[n + 1] += out.joined().matches('?').count();
            }
        }
        unknowns
    });
    let total = unknowns.iter().fold([0; 4], |mut sum, page| {
        sum.iter_mut().zip(page).for_each(|(s, u)| *s += u);
        sum
    });
    assert!(
        total[3] > 10 * total[0],
        "unknown cells per attack: {total:?}"
    );
}

#[test]
fn ocr_equals_the_replaced_loops_on_random_bitmaps() {
    let mut rng = StdRng::seed_from_u64(0x0C5);
    let mut unknowns = 0;
    for scale in 1..=4 {
        let cell = GLYPH_W * scale;
        for width in [0, 1, cell - 1, cell, cell + 1, 97, 360] {
            for _ in 0..4 {
                // Text lines at `scale` behind a random left margin, then
                // ink of every level sprinkled over them: flipped block
                // votes, merged bands and `?` cells, which make `read_band`
                // try every grid phase.
                let height = rng.gen_range(GLYPH_H * scale..=40 * scale);
                let mut bmp = Bitmap::new(width, height);
                let mut y = rng.gen_range(0..2 * scale);
                while y + GLYPH_H * scale <= height {
                    let words: String = (0..rng.gen_range(1..40))
                        .map(|_| charset_char(rng.gen_range(0..CHARSET.len())))
                        .collect();
                    bmp.draw_text(rng.gen_range(0..3 * cell), y, &words, scale, 255);
                    y += GLYPH_H * scale + rng.gen_range(0..3 * scale);
                }
                let density = [0.0, 0.01, 0.1, 0.4][rng.gen_range(0..4)];
                for y in 0..height {
                    for x in 0..width {
                        if rng.gen_bool(density) {
                            bmp.put(x, y, rng.gen());
                        }
                    }
                }
                for threshold in [0, 1, 200, 255] {
                    for config in ocr_configs() {
                        let config = OcrConfig {
                            threshold,
                            seed: rng.gen(),
                            ..config
                        };
                        let what = format!("{width}x{height} at scale {scale}, {config:?}");
                        let out = assert_ocr_equals_the_oracle(&bmp, &config, &what);
                        unknowns += out.joined().matches('?').count();
                    }
                }
            }
        }
    }
    assert!(unknowns > 1_000, "only {unknowns} unknown cells");
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
