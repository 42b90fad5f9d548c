//! ASCII-art dump of a bitmap — the reproduction's stand-in for the
//! screenshot figures (Figure 14).

use crate::canvas::Bitmap;

/// Renders the bitmap as ASCII art, downsampling to at most `cols`
/// characters per row. Each character cell takes the *maximum* intensity
/// of its pixel block (max-pooling) so thin text strokes survive the
/// reduction; intensity maps to the ` .:*#` ramp.
pub fn to_ascii(bmp: &Bitmap, cols: usize) -> String {
    if bmp.width() == 0 || bmp.height() == 0 {
        return String::new();
    }
    let cols = cols.clamp(1, bmp.width());
    // Terminal cells are ~2x taller than wide; halve the row count.
    let rows = ((bmp.height() * cols) / bmp.width() / 2).max(1);
    let ramp = [b' ', b'.', b':', b'*', b'#'];
    let mut out = String::with_capacity((cols + 1) * rows);
    for ty in 0..rows {
        let y0 = ty * bmp.height() / rows;
        let y1 = (((ty + 1) * bmp.height()).div_ceil(rows))
            .max(y0 + 1)
            .min(bmp.height());
        for tx in 0..cols {
            let x0 = tx * bmp.width() / cols;
            let x1 = (((tx + 1) * bmp.width()).div_ceil(cols))
                .max(x0 + 1)
                .min(bmp.width());
            let mut v = 0u8;
            for y in y0..y1 {
                for x in x0..x1 {
                    v = v.max(bmp.get(x, y));
                }
            }
            out.push(ramp[(v as usize * (ramp.len() - 1) + 127) / 255] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_is_spaces() {
        let art = to_ascii(&Bitmap::new(64, 32), 32);
        assert!(art.chars().all(|c| c == ' ' || c == '\n'));
    }

    #[test]
    fn ink_shows_up() {
        let mut b = Bitmap::new(64, 32);
        b.fill_rect(0, 0, 64, 32, 255);
        let art = to_ascii(&b, 32);
        assert!(art.contains('#'));
    }

    #[test]
    fn respects_column_budget() {
        let b = Bitmap::new(360, 520);
        let art = to_ascii(&b, 80);
        for line in art.lines() {
            assert!(line.chars().count() <= 80);
        }
    }

    #[test]
    fn narrow_widths_are_honoured() {
        let b = Bitmap::new(64, 32);
        let art = to_ascii(&b, 3);
        assert!(!art.is_empty());
        assert!(art.lines().all(|line| line.chars().count() == 3));
    }

    #[test]
    fn zero_sized_bitmap_is_empty() {
        assert_eq!(to_ascii(&Bitmap::new(0, 0), 80), "");
    }
}
