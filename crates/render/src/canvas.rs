//! Grayscale bitmap canvas.

use crate::font::{glyph_for, ADVANCE, GLYPH_W};

/// Ink level used for body text.
pub const INK_TEXT: u8 = 255;
/// Ink level used for decoration (borders, fills) — kept below the OCR
/// threshold so only text survives thresholding.
pub const INK_DECOR: u8 = 110;
/// Light fill for panels.
pub const INK_PANEL: u8 = 40;

/// A grayscale image: 0 = white, 255 = full ink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Bitmap {
    /// Blank (white) bitmap.
    pub fn new(width: usize, height: usize) -> Self {
        Bitmap {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel buffer, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel at (x, y); out-of-bounds reads return 0.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x]
        } else {
            0
        }
    }

    /// Sets a pixel to `max(current, ink)`; out-of-bounds writes are
    /// silently clipped.
    pub fn put(&mut self, x: usize, y: usize, ink: u8) {
        if x < self.width && y < self.height {
            let p = &mut self.pixels[y * self.width + x];
            *p = (*p).max(ink);
        }
    }

    /// Fills a rectangle.
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, ink: u8) {
        for yy in y..y.saturating_add(h) {
            for xx in x..x.saturating_add(w) {
                self.put(xx, yy, ink);
            }
        }
    }

    /// Draws a 1px rectangle outline.
    pub fn draw_border(&mut self, x: usize, y: usize, w: usize, h: usize, ink: u8) {
        if w == 0 || h == 0 {
            return;
        }
        for xx in x..x + w {
            self.put(xx, y, ink);
            self.put(xx, y + h - 1, ink);
        }
        for yy in y..y + h {
            self.put(x, yy, ink);
            self.put(x + w - 1, yy, ink);
        }
    }

    /// Draws text at (x, y) with integer `scale`; returns the x position
    /// just past the last glyph. Text never wraps — the layout engine is
    /// responsible for line breaking.
    pub fn draw_text(&mut self, x: usize, y: usize, text: &str, scale: usize, ink: u8) -> usize {
        let scale = scale.max(1);
        let mut cx = x;
        for c in text.chars() {
            let g = glyph_for(c);
            for (gy, &bits) in g.iter().enumerate() {
                for gx in 0..GLYPH_W {
                    if bits & (1 << (GLYPH_W - 1 - gx)) != 0 {
                        self.fill_rect(cx + gx * scale, y + gy * scale, scale, scale, ink);
                    }
                }
            }
            cx += ADVANCE * scale;
        }
        cx
    }

    /// Width in pixels a string occupies at `scale`.
    pub fn text_width(text: &str, scale: usize) -> usize {
        text.chars().count() * ADVANCE * scale.max(1)
    }

    /// Mean intensity over the whole bitmap.
    pub fn mean(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Box-average resample to `w`×`h` (used by perceptual hashing): each
    /// target cell is the integer mean of the source box it covers. Boxes
    /// round outwards, so neighbours overlap when the size does not
    /// divide, and upsampling repeats pixels.
    pub fn resample(&self, w: usize, h: usize) -> Bitmap {
        let mut out = Bitmap::new(w, h);
        if self.width == 0 || self.height == 0 || w == 0 || h == 0 {
            return out;
        }
        // Per target row: sum the band's source rows column-wise, one
        // whole-row slice at a time, then each cell sums its columns.
        // Rows add up in `u16` lanes (twice as many per vector as `u32`),
        // folded into the `u32` column sums every `FOLD_ROWS` rows, before
        // a lane can overflow; `u32` holds 16M full-ink rows per column.
        const FOLD_ROWS: usize = u16::MAX as usize / u8::MAX as usize;
        let mut lanes = vec![0u16; self.width];
        let mut cols = vec![0u32; self.width];
        for (ty, target) in out.pixels.chunks_exact_mut(w).enumerate() {
            let y0 = ty * self.height / h;
            let y1 = (((ty + 1) * self.height).div_ceil(h)).max(y0 + 1);
            cols.fill(0);
            let band = &self.pixels[y0 * self.width..y1 * self.width];
            for rows in band.chunks(FOLD_ROWS * self.width) {
                lanes.fill(0);
                for row in rows.chunks_exact(self.width) {
                    for (l, &p) in lanes.iter_mut().zip(row) {
                        *l += u16::from(p);
                    }
                }
                for (c, &l) in cols.iter_mut().zip(&lanes) {
                    *c += u32::from(l);
                }
            }
            for (tx, cell) in target.iter_mut().enumerate() {
                let x0 = tx * self.width / w;
                let x1 = (((tx + 1) * self.width).div_ceil(w)).max(x0 + 1);
                let sum: usize = cols[x0..x1].iter().map(|&c| c as usize).sum();
                *cell = (sum / ((y1 - y0) * (x1 - x0))) as u8;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_canvas_is_white() {
        let b = Bitmap::new(10, 10);
        assert_eq!(b.mean(), 0.0);
        assert_eq!(b.get(5, 5), 0);
    }

    #[test]
    fn out_of_bounds_is_safe() {
        let mut b = Bitmap::new(4, 4);
        b.put(100, 100, 255);
        assert_eq!(b.get(100, 100), 0);
        b.fill_rect(2, 2, 10, 10, 50); // clipped
        assert_eq!(b.get(3, 3), 50);
    }

    #[test]
    fn draw_text_leaves_ink() {
        let mut b = Bitmap::new(200, 20);
        let end = b.draw_text(2, 2, "paypal", 1, INK_TEXT);
        assert_eq!(end, 2 + 6 * ADVANCE);
        assert!(b.mean() > 0.0);
        // 'p' top-left pixel is inked.
        assert_eq!(b.get(2, 2), INK_TEXT);
    }

    #[test]
    fn scaled_text_is_bigger() {
        let mut a = Bitmap::new(300, 40);
        a.draw_text(0, 0, "abc", 1, INK_TEXT);
        let mut c = Bitmap::new(300, 40);
        c.draw_text(0, 0, "abc", 2, INK_TEXT);
        let ink = |bm: &Bitmap| bm.pixels().iter().filter(|&&p| p > 0).count();
        assert!(ink(&c) > ink(&a) * 3);
    }

    #[test]
    fn border_outlines() {
        let mut b = Bitmap::new(10, 10);
        b.draw_border(1, 1, 8, 8, INK_DECOR);
        assert_eq!(b.get(1, 1), INK_DECOR);
        assert_eq!(b.get(8, 8), INK_DECOR);
        assert_eq!(b.get(4, 4), 0);
    }

    #[test]
    fn resample_preserves_mean_roughly() {
        let mut b = Bitmap::new(64, 64);
        b.fill_rect(0, 0, 32, 64, 200);
        let small = b.resample(8, 8);
        assert!(
            (small.mean() - b.mean()).abs() < 10.0,
            "{} vs {}",
            small.mean(),
            b.mean()
        );
        assert_eq!(small.width(), 8);
    }

    #[test]
    fn put_keeps_max_ink() {
        let mut b = Bitmap::new(2, 2);
        b.put(0, 0, 200);
        b.put(0, 0, 100);
        assert_eq!(b.get(0, 0), 200);
    }
}
