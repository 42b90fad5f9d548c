//! Embedded 5×7 bitmap font.
//!
//! Letters use upright capital-style shapes keyed by lower-case characters
//! (all pipeline text is case-folded). `0` carries inner diagonal marks so
//! the OCR substrate can genuinely distinguish `o` from `0` — the exact
//! distinction homograph squatting plays on.

/// Glyph cell width in pixels (excluding inter-glyph spacing).
pub const GLYPH_W: usize = 5;
/// Glyph cell height in pixels.
pub const GLYPH_H: usize = 7;
/// Horizontal advance per character (glyph + 1px spacing).
pub const ADVANCE: usize = GLYPH_W + 1;
/// Vertical advance per text line (glyph + 3px leading).
pub const LINE_ADVANCE: usize = GLYPH_H + 3;

/// A glyph as 7 rows of 5 bits (bit 4 = leftmost pixel).
pub type Glyph = [u8; GLYPH_H];

const fn row(pattern: &[u8; GLYPH_W]) -> u8 {
    let mut bits = 0u8;
    let mut i = 0;
    while i < GLYPH_W {
        if pattern[i] == b'#' {
            bits |= 1 << (GLYPH_W - 1 - i);
        }
        i += 1;
    }
    bits
}

macro_rules! glyph {
    ($r0:literal $r1:literal $r2:literal $r3:literal $r4:literal $r5:literal $r6:literal) => {
        [
            row($r0),
            row($r1),
            row($r2),
            row($r3),
            row($r4),
            row($r5),
            row($r6),
        ]
    };
}

/// Characters the font covers, in table order.
pub const CHARSET: &str = "abcdefghijklmnopqrstuvwxyz0123456789-.:/@?!,$&' ";

/// The glyph table, aligned with [`CHARSET`].
pub static GLYPHS: [Glyph; 48] = [
    glyph!(b".###." b"#...#" b"#...#" b"#####" b"#...#" b"#...#" b"#...#"), // a
    glyph!(b"####." b"#...#" b"#...#" b"####." b"#...#" b"#...#" b"####."), // b
    glyph!(b".###." b"#...#" b"#...." b"#...." b"#...." b"#...#" b".###."), // c
    glyph!(b"####." b"#...#" b"#...#" b"#...#" b"#...#" b"#...#" b"####."), // d
    glyph!(b"#####" b"#...." b"#...." b"####." b"#...." b"#...." b"#####"), // e
    glyph!(b"#####" b"#...." b"#...." b"####." b"#...." b"#...." b"#...."), // f
    glyph!(b".###." b"#...#" b"#...." b"#.###" b"#...#" b"#...#" b".###."), // g
    glyph!(b"#...#" b"#...#" b"#...#" b"#####" b"#...#" b"#...#" b"#...#"), // h
    glyph!(b".###." b"..#.." b"..#.." b"..#.." b"..#.." b"..#.." b".###."), // i
    glyph!(b"..###" b"...#." b"...#." b"...#." b"...#." b"#..#." b".##.."), // j
    glyph!(b"#...#" b"#..#." b"#.#.." b"##..." b"#.#.." b"#..#." b"#...#"), // k
    glyph!(b"#...." b"#...." b"#...." b"#...." b"#...." b"#...." b"#####"), // l
    glyph!(b"#...#" b"##.##" b"#.#.#" b"#.#.#" b"#...#" b"#...#" b"#...#"), // m
    glyph!(b"#...#" b"##..#" b"#.#.#" b"#..##" b"#...#" b"#...#" b"#...#"), // n
    glyph!(b".###." b"#...#" b"#...#" b"#...#" b"#...#" b"#...#" b".###."), // o
    glyph!(b"####." b"#...#" b"#...#" b"####." b"#...." b"#...." b"#...."), // p
    glyph!(b".###." b"#...#" b"#...#" b"#...#" b"#.#.#" b"#..#." b".##.#"), // q
    glyph!(b"####." b"#...#" b"#...#" b"####." b"#.#.." b"#..#." b"#...#"), // r
    glyph!(b".####" b"#...." b"#...." b".###." b"....#" b"....#" b"####."), // s
    glyph!(b"#####" b"..#.." b"..#.." b"..#.." b"..#.." b"..#.." b"..#.."), // t
    glyph!(b"#...#" b"#...#" b"#...#" b"#...#" b"#...#" b"#...#" b".###."), // u
    glyph!(b"#...#" b"#...#" b"#...#" b"#...#" b"#...#" b".#.#." b"..#.."), // v
    glyph!(b"#...#" b"#...#" b"#...#" b"#.#.#" b"#.#.#" b"##.##" b"#...#"), // w
    glyph!(b"#...#" b"#...#" b".#.#." b"..#.." b".#.#." b"#...#" b"#...#"), // x
    glyph!(b"#...#" b"#...#" b".#.#." b"..#.." b"..#.." b"..#.." b"..#.."), // y
    glyph!(b"#####" b"....#" b"...#." b"..#.." b".#..." b"#...." b"#####"), // z
    glyph!(b".###." b"#...#" b"#..##" b"#.#.#" b"##..#" b"#...#" b".###."), // 0
    glyph!(b"..#.." b".##.." b"..#.." b"..#.." b"..#.." b"..#.." b".###."), // 1
    glyph!(b".###." b"#...#" b"....#" b"...#." b"..#.." b".#..." b"#####"), // 2
    glyph!(b".###." b"#...#" b"....#" b"..##." b"....#" b"#...#" b".###."), // 3
    glyph!(b"...#." b"..##." b".#.#." b"#..#." b"#####" b"...#." b"...#."), // 4
    glyph!(b"#####" b"#...." b"####." b"....#" b"....#" b"#...#" b".###."), // 5
    glyph!(b".###." b"#...." b"#...." b"####." b"#...#" b"#...#" b".###."), // 6
    glyph!(b"#####" b"....#" b"...#." b"..#.." b"..#.." b"..#.." b"..#.."), // 7
    glyph!(b".###." b"#...#" b"#...#" b".###." b"#...#" b"#...#" b".###."), // 8
    glyph!(b".###." b"#...#" b"#...#" b".####" b"....#" b"....#" b".###."), // 9
    glyph!(b"....." b"....." b"....." b"#####" b"....." b"....." b"....."), // -
    glyph!(b"....." b"....." b"....." b"....." b"....." b".##.." b".##.."), // .
    glyph!(b"....." b".##.." b".##.." b"....." b".##.." b".##.." b"....."), // :
    glyph!(b"....#" b"....#" b"...#." b"..#.." b".#..." b"#...." b"#...."), // /
    glyph!(b".###." b"#...#" b"#.###" b"#.#.#" b"#.###" b"#...." b".###."), // @
    glyph!(b".###." b"#...#" b"....#" b"...#." b"..#.." b"....." b"..#.."), // ?
    glyph!(b"..#.." b"..#.." b"..#.." b"..#.." b"..#.." b"....." b"..#.."), // !
    glyph!(b"....." b"....." b"....." b"....." b".##.." b"..#.." b".#..."), // ,
    glyph!(b"..#.." b".####" b"#.#.." b".###." b"..#.#" b"####." b"..#.."), // $
    glyph!(b".##.." b"#..#." b"#.#.." b".#..." b"#.#.#" b"#..#." b".##.#"), // &
    glyph!(b"..#.." b"..#.." b"....." b"....." b"....." b"....." b"....."), // '
    glyph!(b"....." b"....." b"....." b"....." b"....." b"....." b"....."), // space
];

/// Returns the glyph for `c` (case-folded); unknown characters map to `?`.
pub fn glyph_for(c: char) -> &'static Glyph {
    let c = c.to_ascii_lowercase();
    match CHARSET.find(c) {
        Some(i) => &GLYPHS[i],
        // `?` is pinned into CHARSET by the charset_covers_fallback test;
        // falling back to glyph 0 keeps this total even if it ever moves.
        None => CHARSET.find('?').map_or(&GLYPHS[0], |q| &GLYPHS[q]),
    }
}

/// Character at a charset index.
pub fn charset_char(i: usize) -> char {
    CHARSET.as_bytes()[i] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charset_and_table_aligned() {
        assert_eq!(CHARSET.len(), GLYPHS.len());
    }

    #[test]
    fn glyphs_are_unique() {
        // OCR template matching needs injective glyphs (except space which
        // must be the only empty cell).
        for (i, gi) in GLYPHS.iter().enumerate() {
            for (j, gj) in GLYPHS.iter().enumerate().skip(i + 1) {
                assert_ne!(
                    gi,
                    gj,
                    "glyphs for {:?} and {:?} collide",
                    charset_char(i),
                    charset_char(j)
                );
            }
        }
    }

    #[test]
    fn o_differs_from_zero() {
        let o = glyph_for('o');
        let zero = glyph_for('0');
        assert_ne!(o, zero);
    }

    #[test]
    fn unknown_chars_map_to_question_mark() {
        assert_eq!(glyph_for('€'), glyph_for('?'));
        assert_eq!(glyph_for('…'), glyph_for('?'));
    }

    #[test]
    fn charset_covers_fallback() {
        // glyph_for's unknown-character path relies on this.
        assert!(CHARSET.contains('?'));
    }

    #[test]
    fn case_folding() {
        assert_eq!(glyph_for('A'), glyph_for('a'));
        assert_eq!(glyph_for('Z'), glyph_for('z'));
    }

    #[test]
    fn space_is_blank() {
        assert!(glyph_for(' ').iter().all(|&r| r == 0));
    }

    #[test]
    fn every_visible_glyph_has_ink() {
        for (i, g) in GLYPHS.iter().enumerate() {
            let c = charset_char(i);
            if c != ' ' {
                assert!(g.iter().any(|&r| r != 0), "glyph {c:?} is blank");
            }
        }
    }

    #[test]
    fn rows_fit_five_bits() {
        for g in &GLYPHS {
            for &r in g {
                assert_eq!(r & !0b11111, 0);
            }
        }
    }
}
