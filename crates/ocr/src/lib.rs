//! OCR substrate — the Tesseract substitute (paper §5.1).
//!
//! The paper's key feature novelty is extracting text from page
//! *screenshots* so HTML-level obfuscation can't hide phishing keywords.
//! This crate recognizes text out of [`squatphi_render::Bitmap`]s:
//!
//! 1. **Threshold** — decoration ink stays below 140, text at 255, so a
//!    threshold at 200 isolates glyph pixels (the analogue of Tesseract's
//!    adaptive binarization),
//! 2. **Segment** — horizontal projection finds text bands; each band is
//!    scanned for glyph-sized cells at each of the renderer's integer
//!    scales,
//! 3. **Match** — each cell is template-matched against the font atlas;
//!    the best glyph under a mismatch budget wins,
//! 4. **Noise** — a seeded error model flips recognized characters to
//!    visually-near neighbors at a configurable rate (Tesseract's reported
//!    error is ≤3%; the spell-checking stage downstream exists to absorb
//!    exactly these errors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;

use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_render::font::{charset_char, ADVANCE, CHARSET, GLYPHS, GLYPH_H, GLYPH_W};
use squatphi_render::Bitmap;
use std::sync::OnceLock;

/// OCR engine configuration.
#[derive(Debug, Clone)]
pub struct OcrConfig {
    /// Pixel intensity at or above which a pixel counts as glyph ink.
    pub threshold: u8,
    /// Per-character probability of a recognition error (0.0..1.0).
    pub char_error_rate: f64,
    /// Seed for the error model.
    pub seed: u64,
    /// Maximum mismatching pixels tolerated per 5×7 template cell.
    pub mismatch_budget: u32,
}

impl Default for OcrConfig {
    fn default() -> Self {
        // 3% matches the Tesseract accuracy the paper cites.
        OcrConfig {
            threshold: 200,
            char_error_rate: 0.03,
            seed: 0x0C5,
            mismatch_budget: 4,
        }
    }
}

/// A recognized line of text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcrLine {
    /// Recognized characters.
    pub text: String,
    /// Top y coordinate of the band.
    pub y: usize,
    /// Glyph scale detected for the band.
    pub scale: usize,
}

/// Full OCR output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OcrResult {
    /// Lines in top-to-bottom order.
    pub lines: Vec<OcrLine>,
}

impl OcrResult {
    /// All recognized text joined with spaces, lower-case.
    pub fn joined(&self) -> String {
        self.lines
            .iter()
            .map(|l| l.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
            .to_ascii_lowercase()
    }
}

/// Characters that look alike at 5×7 — the error model swaps within these
/// groups, mimicking real OCR confusion patterns.
const CONFUSION_GROUPS: &[&str] = &["o0", "l1i", "rn", "cl", "vu", "s5", "gq", "b8", "z2"];

/// Rejected [`OcrConfig`] values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OcrError {
    /// `char_error_rate` must be a finite probability in `[0, 1]`.
    InvalidErrorRate(f64),
}

impl std::fmt::Display for OcrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OcrError::InvalidErrorRate(rate) => {
                write!(
                    f,
                    "ocr: char_error_rate {rate} is not a probability in [0, 1]"
                )
            }
        }
    }
}

impl std::error::Error for OcrError {}

/// Fallible [`recognize`]: validates the config instead of silently
/// clamping a nonsensical error rate.
pub fn try_recognize(bmp: &Bitmap, config: &OcrConfig) -> Result<OcrResult, OcrError> {
    if !config.char_error_rate.is_finite() || !(0.0..=1.0).contains(&config.char_error_rate) {
        return Err(OcrError::InvalidErrorRate(config.char_error_rate));
    }
    Ok(recognize(bmp, config))
}

/// Runs OCR over a bitmap.
pub fn recognize(bmp: &Bitmap, config: &OcrConfig) -> OcrResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut lines = Vec::new();
    let mut votes = Votes::default();

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
        if let Some(text) = read_band(bmp, band_top, scale, config, &mut votes, &mut rng) {
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

/// One band binarised at one scale. For each column `x`, one byte whose
/// bit `gy` says whether the `scale`×`scale` block at `x` in glyph row `gy`
/// holds a majority of ink, so a cell at any grid phase is 5 lookups. The
/// buffers are reused from band to band.
#[derive(Default)]
struct Votes {
    /// Block votes per column start `0..=width - scale`.
    columns: Vec<u8>,
    /// Ink pixels per column over one glyph row's `scale` pixel rows.
    counts: Vec<u8>,
    /// Ink pixels per block (the sum of `scale` adjacent `counts`).
    blocks: Vec<u8>,
    width: usize,
    scale: usize,
}

impl Votes {
    /// Binarises rows `top..top + GLYPH_H * scale`, all inside `bmp`.
    fn fill(&mut self, bmp: &Bitmap, top: usize, scale: usize, threshold: u8) {
        let width = bmp.width();
        let starts = (width + 1).saturating_sub(scale);
        (self.width, self.scale) = (width, scale);
        self.columns.clear();
        self.columns.resize(starts, 0);
        self.counts.resize(width, 0);
        self.blocks.resize(starts, 0);
        // `recognize` clamps the scale to 4: at most 16 pixels a block, so
        // every count, sum and doubled sum fits a byte.
        let majority = (scale * scale) as u8;
        for gy in 0..GLYPH_H {
            self.counts.fill(0);
            for y in top + gy * scale..top + (gy + 1) * scale {
                for (count, &p) in self.counts.iter_mut().zip(row(bmp, y)) {
                    *count += u8::from(p >= threshold);
                }
            }
            self.blocks.copy_from_slice(&self.counts[..starts]);
            for dx in 1..scale.min(width) {
                for (block, &count) in self.blocks.iter_mut().zip(&self.counts[dx..]) {
                    *block += count;
                }
            }
            for (column, &ink) in self.columns.iter_mut().zip(&self.blocks) {
                *column |= u8::from(ink * 2 >= majority) << gy;
            }
        }
    }

    /// The cell whose left edge is column `x` (`x + 5·scale` ≤ width),
    /// packed as [`pack`] packs a glyph.
    fn cell(&self, x: usize) -> u64 {
        let column = |gx: usize| u64::from(self.columns[x + gx * self.scale]);
        (0..GLYPH_W).fold(0, |word, gx| word << 8 | column(gx))
    }
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
    votes: &mut Votes,
    rng: &mut StdRng,
) -> Option<String> {
    let ink_left = leftmost_ink(bmp, top, GLYPH_H * scale, config.threshold)?;
    votes.fill(bmp, top, scale, config.threshold);
    let mut best: Option<(usize, String)> = None;
    for phase in 0..GLYPH_W {
        let start = match ink_left.checked_sub(phase * scale) {
            Some(s) => s,
            None => break,
        };
        let text = read_band_at(votes, start, config.mismatch_budget);
        let unknowns = text.chars().filter(|&c| c == '?').count();
        if best.as_ref().is_none_or(|(u, _)| unknowns < *u) {
            best = Some((unknowns, text));
        }
        if unknowns == 0 {
            break;
        }
    }
    let (_, text) = best?;
    Some(apply_noise_line(&text, config, rng))
}

/// Reads a band with the glyph grid anchored at `left` (no noise).
fn read_band_at(votes: &Votes, left: usize, budget: u32) -> String {
    let mut out = String::new();
    let mut x = left;
    let advance = ADVANCE * votes.scale;
    let mut blank_run = 0usize;
    while x + GLYPH_W * votes.scale <= votes.width {
        let cell = votes.cell(x);
        if cell == 0 {
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
        out.push(match_glyph(cell, budget));
        x += advance;
    }
    out.truncate(out.trim_end().len());
    out
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

/// A 5×7 cell (a row per byte, leftmost pixel in bit 4) as one word, a
/// column per byte with glyph row `gy` in bit `gy`, so a template
/// comparison is one XOR and one popcount.
fn pack(cell: &[u8; GLYPH_H]) -> u64 {
    (0..GLYPH_W).fold(0, |word, gx| {
        let shift = GLYPH_W - 1 - gx;
        let column = (0..GLYPH_H).fold(0, |bits, gy| bits | (cell[gy] >> shift & 1) << gy);
        word << 8 | u64::from(column)
    })
}

/// Best-matching glyph for a [`pack`]ed cell under the mismatch budget;
/// `?` when nothing fits.
fn match_glyph(cell: u64, budget: u32) -> char {
    static ATLAS: OnceLock<Vec<(char, u64)>> = OnceLock::new();
    let atlas = ATLAS.get_or_init(|| {
        let glyphs = GLYPHS.iter().enumerate();
        let packed = glyphs.map(|(i, g)| (charset_char(i), pack(g)));
        packed.filter(|&(c, _)| c != ' ').collect()
    });
    let mut best = ('?', u32::MAX);
    for &(c, glyph) in atlas {
        let mismatch = (cell ^ glyph).count_ones();
        if mismatch < best.1 {
            best = (c, mismatch);
            // Only a strictly smaller count replaces the best: none can.
            if mismatch == 0 {
                break;
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_html::parse;
    use squatphi_render::{render_page, RenderOptions};

    fn noiseless() -> OcrConfig {
        OcrConfig {
            char_error_rate: 0.0,
            ..OcrConfig::default()
        }
    }

    fn render(html: &str) -> Bitmap {
        render_page(&parse(html), &RenderOptions::default())
    }

    /// The scans as they were before they read whole rows: one
    /// bounds-checked `get` per pixel, columns outermost for the left edge,
    /// seven byte popcounts per template.
    fn row_has_ink_by_get(bmp: &Bitmap, y: usize, threshold: u8) -> bool {
        (0..bmp.width()).any(|x| bmp.get(x, y) >= threshold)
    }

    fn leftmost_ink_by_get(bmp: &Bitmap, top: usize, rows: usize, threshold: u8) -> Option<usize> {
        (0..bmp.width())
            .find(|&x| (top..(top + rows).min(bmp.height())).any(|y| bmp.get(x, y) >= threshold))
    }

    fn match_glyph_by_rows(cell: &[u8; GLYPH_H], budget: u32) -> char {
        let mut best = ('?', u32::MAX);
        for (i, g) in GLYPHS.iter().enumerate() {
            let c = charset_char(i);
            if c == ' ' {
                continue;
            }
            let mut mismatch = 0u32;
            for r in 0..GLYPH_H {
                mismatch += (cell[r] ^ g[r]).count_ones();
            }
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

    #[test]
    fn slice_scans_agree_with_the_get_based_ones() {
        let mut rng = StdRng::seed_from_u64(0x0C5);
        // Mostly blank rows with sparse ink, like a page; a bitmap with
        // no columns and one with no rows for the degenerate ends.
        for (w, h) in [(360, 60), (37, 23), (5, 7), (1, 1), (0, 4), (4, 0)] {
            let mut bmp = Bitmap::new(w, h);
            for y in (0..h).filter(|y| y % 3 != 0) {
                for x in 0..w {
                    if rng.gen_bool(0.02) {
                        bmp.put(x, y, rng.gen());
                    }
                }
            }
            for threshold in [0, 1, 200, 255] {
                for y in 0..h {
                    assert_eq!(
                        row_has_ink(&bmp, y, threshold),
                        row_has_ink_by_get(&bmp, y, threshold),
                        "{w}x{h} row {y} at {threshold}"
                    );
                    for rows in [1, GLYPH_H, 4 * GLYPH_H] {
                        assert_eq!(
                            leftmost_ink(&bmp, y, rows, threshold),
                            leftmost_ink_by_get(&bmp, y, rows, threshold),
                            "{w}x{h} band {y}+{rows} at {threshold}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_match_agrees_with_the_row_by_row_one() {
        let mut rng = StdRng::seed_from_u64(0x0C5);
        for g in GLYPHS.iter() {
            // Each template exactly, then under 1..=8 flipped pixels, so
            // both sides of every budget and near-ties between glyphs occur.
            let mut cell = *g;
            for _ in 0..=8 {
                for budget in [0, 4, 35] {
                    assert_eq!(
                        match_glyph(pack(&cell), budget),
                        match_glyph_by_rows(&cell, budget),
                        "cell {cell:?} budget {budget}"
                    );
                }
                cell[rng.gen_range(0..GLYPH_H)] ^= 1 << rng.gen_range(0..GLYPH_W);
            }
        }
    }

    #[test]
    fn try_recognize_validates_error_rate() {
        let bmp = render("<body><p>hi</p></body>");
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = OcrConfig {
                char_error_rate: bad,
                ..OcrConfig::default()
            };
            assert!(matches!(
                try_recognize(&bmp, &cfg),
                Err(OcrError::InvalidErrorRate(_))
            ));
        }
        let ok = try_recognize(&bmp, &noiseless()).unwrap();
        assert_eq!(ok, recognize(&bmp, &noiseless()));
    }

    #[test]
    fn reads_plain_text_exactly() {
        let bmp = render("<body><p>password</p></body>");
        let out = recognize(&bmp, &noiseless());
        assert!(out.joined().contains("password"), "got {:?}", out.joined());
    }

    #[test]
    fn reads_headline_scale_text() {
        let bmp = render("<body><h1>paypal</h1></body>");
        let out = recognize(&bmp, &noiseless());
        assert!(out.joined().contains("paypal"), "got {:?}", out.joined());
        assert!(out.lines.iter().any(|l| l.scale >= 3));
    }

    #[test]
    fn reads_form_placeholders_and_buttons() {
        let bmp = render(
            "<body><form><input type='email' placeholder='email'>\
             <input type='password' placeholder='password'>\
             <button type='submit'>log in</button></form></body>",
        );
        let text = recognize(&bmp, &noiseless()).joined();
        assert!(text.contains("email"), "got {text:?}");
        assert!(text.contains("password"), "got {text:?}");
        assert!(text.contains("log in"), "got {text:?}");
    }

    #[test]
    fn reads_text_baked_into_images() {
        // The string-obfuscation evasion: brand only in image pixels.
        let bmp = render("<body><img width='220' height='40' data-text='facebook'></body>");
        let text = recognize(&bmp, &noiseless()).joined();
        assert!(text.contains("facebook"), "got {text:?}");
    }

    #[test]
    fn distinguishes_o_from_zero() {
        let bmp = render("<body><p>faceb00k facebook</p></body>");
        let text = recognize(&bmp, &noiseless()).joined();
        assert!(text.contains("faceb00k"), "got {text:?}");
        assert!(text.contains("facebook"), "got {text:?}");
    }

    #[test]
    fn noise_rate_roughly_matches_config() {
        let bmp = render(
            "<body><p>the quick brown fox jumps over the lazy dog again and again</p>\
             <p>pack my box with five dozen liquor jugs for the great escape</p></body>",
        );
        let clean = recognize(&bmp, &noiseless()).joined();
        let noisy = recognize(
            &bmp,
            &OcrConfig {
                char_error_rate: 0.05,
                ..OcrConfig::default()
            },
        )
        .joined();
        let diff = clean
            .chars()
            .zip(noisy.chars())
            .filter(|(a, b)| a != b)
            .count();
        // Same length (substitution noise), difference near 5%.
        assert_eq!(clean.len(), noisy.len());
        let rate = diff as f64 / clean.len() as f64;
        assert!(rate > 0.0 && rate < 0.15, "noise rate {rate}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let bmp = render("<body><p>deterministic output required here</p></body>");
        let cfg = OcrConfig {
            char_error_rate: 0.1,
            seed: 42,
            ..OcrConfig::default()
        };
        assert_eq!(recognize(&bmp, &cfg), recognize(&bmp, &cfg));
    }

    #[test]
    fn regression_short_words_round_trip() {
        // Pinned from tests/properties.proptest-regressions, which shrank
        // a failure of `ocr_reads_back_rendered_words` down to
        // `words = ["ia"]`: narrow glyphs like `i` have blank leading
        // columns, so the first ink pixel of a band does not sit on the
        // glyph-grid boundary and the phase search in `read_band` must
        // recover the true alignment. Keep the shrunken case plus a
        // covering sweep of the shortest words the property generates.
        let cfg = noiseless();
        let mut cases = vec!["ia".to_string(), "ia qt".to_string()];
        for a in b'a'..=b'z' {
            for b in b'a'..=b'z' {
                cases.push(format!("{}{}", a as char, b as char));
            }
        }
        for text in &cases {
            let bmp = render(&format!("<body><p>{text}</p></body>"));
            let out = recognize(&bmp, &cfg).joined();
            for w in text.split(' ') {
                assert!(out.contains(w), "OCR lost {w:?} in {out:?} for {text:?}");
            }
        }
    }

    #[test]
    fn blank_page_yields_nothing() {
        let out = recognize(&Bitmap::new(360, 520), &noiseless());
        assert!(out.lines.is_empty());
    }

    #[test]
    fn decoration_invisible_to_ocr() {
        // A page of borders and panels but no text.
        let bmp = render("<body><div data-fill='40'></div><img width='100' height='30'></body>");
        let out = recognize(&bmp, &noiseless());
        assert_eq!(out.joined().trim(), "", "got {:?}", out.joined());
    }
}
