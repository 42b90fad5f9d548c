//! Homoglyph (confusables) table.
//!
//! The paper points out that DNSTwist maps only a fraction of the Unicode
//! confusables (13 of 23 for the letter `a`) and builds a more complete
//! table from the Unicode consortium's `confusablesSummary.txt`. This module
//! embeds a table with the same structure: for each ASCII letter/digit, a
//! set of look-alike *single* Unicode characters plus multi-character ASCII
//! sequences (`rn` → `m`, `vv` → `w`, `cl` → `d` …) and ASCII digit/letter
//! swaps (`0` ↔ `o`, `1` ↔ `l`).

/// Confusable substitutions for one ASCII source character.
#[derive(Debug, Clone)]
pub struct ConfusableEntry {
    /// The ASCII character being imitated.
    pub source: char,
    /// Unicode characters that render like `source`.
    pub unicode: &'static [char],
    /// Pure-ASCII look-alikes (single char), e.g. `0` for `o`.
    pub ascii: &'static [char],
    /// Multi-character ASCII sequences that render like `source`.
    pub sequences: &'static [&'static str],
}

/// The embedded confusables table.
///
/// Unicode variants are drawn from the Latin/Greek/Cyrillic blocks that
/// dominate real-world homograph abuse (the full consortium table also maps
/// exotic scripts; those add recall but not behavior, so a representative
/// subset per letter suffices for the reproduction — importantly *more than
/// one* variant per letter, which is the gap the paper calls out).
pub const CONFUSABLES: &[ConfusableEntry] = &[
    ConfusableEntry {
        source: 'a',
        unicode: &[
            'à', 'á', 'â', 'ã', 'ä', 'å', 'ā', 'ă', 'ą', 'α', 'а', 'ạ', 'ả', 'ǎ', 'ȁ', 'ȃ', 'ḁ',
            'ẚ', 'ɑ', 'ά', 'ӑ', 'ӓ', 'ᾳ',
        ],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'b',
        unicode: &['ƀ', 'ḃ', 'ḅ', 'ḇ', 'Ь', 'ƅ', 'ь'],
        ascii: &[],
        sequences: &["lo"],
    },
    ConfusableEntry {
        source: 'c',
        unicode: &['ç', 'ć', 'ĉ', 'ċ', 'č', 'с', 'ϲ', 'ȼ', 'ḉ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'd',
        unicode: &['ď', 'đ', 'ḋ', 'ḍ', 'ḏ', 'ḑ', 'ḓ', 'ɗ'],
        ascii: &[],
        sequences: &["cl"],
    },
    ConfusableEntry {
        source: 'e',
        unicode: &[
            'è', 'é', 'ê', 'ë', 'ē', 'ĕ', 'ė', 'ę', 'ě', 'е', 'ε', 'ѐ', 'ё', 'ḕ', 'ḗ', 'ẹ', 'ẻ',
            'ẽ',
        ],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'f',
        unicode: &['ƒ', 'ḟ', 'ꞙ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'g',
        unicode: &['ĝ', 'ğ', 'ġ', 'ģ', 'ǵ', 'ɡ', 'ḡ', 'ԍ'],
        ascii: &['q'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'h',
        unicode: &['ĥ', 'ħ', 'ḣ', 'ḥ', 'ḧ', 'ḩ', 'һ', 'ɦ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'i',
        unicode: &[
            'ì', 'í', 'î', 'ï', 'ĩ', 'ī', 'ĭ', 'į', 'ι', 'і', 'ї', 'ɩ', 'ḭ', 'ḯ', 'ỉ', 'ị',
        ],
        ascii: &['1', 'l'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'j',
        unicode: &['ĵ', 'ϳ', 'ј', 'ɉ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'k',
        unicode: &['ķ', 'ǩ', 'ḱ', 'ḳ', 'ḵ', 'κ', 'к'],
        ascii: &[],
        sequences: &["lc"],
    },
    ConfusableEntry {
        source: 'l',
        unicode: &['ĺ', 'ļ', 'ľ', 'ŀ', 'ł', 'ḷ', 'ḹ', 'ḻ', 'ḽ', 'ǀ', 'ӏ'],
        ascii: &['1', 'i'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'm',
        unicode: &['ḿ', 'ṁ', 'ṃ', 'м', 'ɱ'],
        ascii: &[],
        sequences: &["rn", "nn"],
    },
    ConfusableEntry {
        source: 'n',
        unicode: &['ñ', 'ń', 'ņ', 'ň', 'ǹ', 'ṅ', 'ṇ', 'ṉ', 'ṋ', 'п', 'η'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'o',
        unicode: &[
            'ò', 'ó', 'ô', 'õ', 'ö', 'ø', 'ō', 'ŏ', 'ő', 'ο', 'о', 'σ', 'ѳ', 'ṍ', 'ṏ', 'ṑ', 'ṓ',
            'ọ', 'ỏ',
        ],
        ascii: &['0'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'p',
        unicode: &['ṕ', 'ṗ', 'ρ', 'р', 'ƥ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'q',
        unicode: &['ʠ', 'ԛ'],
        ascii: &['g'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'r',
        unicode: &['ŕ', 'ŗ', 'ř', 'ȑ', 'ȓ', 'ṙ', 'ṛ', 'ṝ', 'ṟ', 'г'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 's',
        unicode: &['ś', 'ŝ', 'ş', 'š', 'ș', 'ṡ', 'ṣ', 'ѕ'],
        ascii: &['5'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 't',
        unicode: &['ţ', 'ť', 'ŧ', 'ț', 'ṫ', 'ṭ', 'ṯ', 'ṱ', 'т', 'τ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'u',
        unicode: &[
            'ù', 'ú', 'û', 'ü', 'ũ', 'ū', 'ŭ', 'ů', 'ű', 'ų', 'υ', 'ս', 'ṳ', 'ṵ', 'ṷ', 'ụ', 'ủ',
        ],
        ascii: &['v'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'v',
        unicode: &['ṽ', 'ṿ', 'ν', 'ѵ', 'ʋ'],
        ascii: &['u'],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'w',
        unicode: &['ŵ', 'ẁ', 'ẃ', 'ẅ', 'ẇ', 'ẉ', 'ω', 'ш', 'ѡ'],
        ascii: &[],
        sequences: &["vv"],
    },
    ConfusableEntry {
        source: 'x',
        unicode: &['ẋ', 'ẍ', 'х', 'χ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'y',
        unicode: &['ý', 'ÿ', 'ŷ', 'ȳ', 'ẏ', 'ỳ', 'ỵ', 'ỷ', 'ỹ', 'у', 'γ'],
        ascii: &[],
        sequences: &[],
    },
    ConfusableEntry {
        source: 'z',
        unicode: &['ź', 'ż', 'ž', 'ẑ', 'ẓ', 'ẕ', 'ȥ'],
        ascii: &['2'],
        sequences: &[],
    },
    ConfusableEntry {
        source: '0',
        unicode: &['Ο', 'о'],
        ascii: &['o'],
        sequences: &[],
    },
    ConfusableEntry {
        source: '1',
        unicode: &[],
        ascii: &['l', 'i'],
        sequences: &[],
    },
    ConfusableEntry {
        source: '5',
        unicode: &[],
        ascii: &['s'],
        sequences: &[],
    },
];

/// Lookup-oriented view over [`CONFUSABLES`].
///
/// Provides forward lookup (ASCII char → variants) for generation and a
/// *folding* operation (Unicode string → ASCII skeleton) for detection.
#[derive(Debug, Clone)]
pub struct ConfusableTable {
    // Forward index: ASCII byte -> entry index; 255 = none.
    forward: [u8; 128],
}

impl Default for ConfusableTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ConfusableTable {
    /// Builds the lookup structures from the embedded table (`const`, so
    /// a generator can keep one in a `static`).
    pub const fn new() -> Self {
        let mut forward = [255u8; 128];
        let mut i = 0;
        while i < CONFUSABLES.len() {
            forward[CONFUSABLES[i].source as usize] = i as u8;
            i += 1;
        }
        ConfusableTable { forward }
    }

    /// All confusable variants of an ASCII character: Unicode look-alikes
    /// followed by single-char ASCII look-alikes.
    pub fn variants(&self, c: char) -> impl Iterator<Item = char> + '_ {
        let entry = self.entry(c);
        entry
            .map(|e| e.unicode.iter().chain(e.ascii.iter()).copied())
            .into_iter()
            .flatten()
    }

    /// Multi-character ASCII sequences that imitate `c` (e.g. `rn` for `m`).
    pub fn sequences(&self, c: char) -> &'static [&'static str] {
        self.entry(c).map(|e| e.sequences).unwrap_or(&[])
    }

    /// Number of variants known for `c` (used by coverage tests and the
    /// generator's budget logic).
    pub fn variant_count(&self, c: char) -> usize {
        self.entry(c)
            .map(|e| e.unicode.len() + e.ascii.len())
            .unwrap_or(0)
    }

    fn entry(&self, c: char) -> Option<&'static ConfusableEntry> {
        if !c.is_ascii() {
            return None;
        }
        match self.forward[c as usize] {
            255 => None,
            i => Some(&CONFUSABLES[i as usize]),
        }
    }

    /// The ASCII half of the skeleton fold: digit/letter swaps where the
    /// digit imitates a letter (`0`→`o`, `5`→`s`); every other ASCII byte is
    /// kept as-is. Exposed so callers folding a known-ASCII label can do so
    /// byte-wise into a stack buffer instead of allocating via [`skeleton`].
    ///
    /// [`skeleton`]: Self::skeleton
    #[inline]
    pub fn ascii_fold_byte(b: u8) -> u8 {
        match b {
            b'0' => b'o',
            b'5' => b's',
            _ => b,
        }
    }

    /// The *canonical* ASCII fold: maps every member of a mutually
    /// confusable ASCII glyph class (`{0,o}`, `{5,s}`, `{1,i,l}`, `{g,q}`,
    /// `{u,v}`, `{2,z}`) to a single representative. Two ASCII labels are
    /// single-character-swap homographs of each other **iff** their
    /// canonical folds are byte-equal, which lets the detector resolve any
    /// number of ambiguous swaps (`a11iancebank`, `bloqqer`) — and brands
    /// whose own labels contain confusable glyphs — with one hash probe
    /// against a canonically-keyed index. Unlike [`ascii_fold_byte`] the
    /// output rewrites the letters of each class too, so it is a comparison
    /// key, never a display string.
    ///
    /// [`ascii_fold_byte`]: Self::ascii_fold_byte
    #[inline]
    pub fn canonical_fold_byte(b: u8) -> u8 {
        match b {
            b'0' => b'o',
            b'5' => b's',
            b'1' | b'i' => b'l',
            b'q' => b'g',
            b'v' => b'u',
            b'2' => b'z',
            _ => b,
        }
    }

    /// Folds a (possibly Unicode) label to its ASCII *skeleton*: every
    /// confusable character is replaced by the ASCII character it imitates.
    /// Multi-char sequences are **not** folded here (that is a separate,
    /// quadratic pass done by the detector only for near-miss candidates).
    ///
    /// ```
    /// use squatphi_domain::ConfusableTable;
    /// let t = ConfusableTable::new();
    /// assert_eq!(t.skeleton("fàcebook"), "facebook");
    /// assert_eq!(t.skeleton("faceb00k"), "facebook");
    /// assert_eq!(t.skeleton("plain"), "plain");
    /// ```
    pub fn skeleton(&self, label: &str) -> String {
        let mut out = String::with_capacity(label.len());
        'chars: for c in label.chars() {
            if c.is_ascii() {
                out.push(Self::ascii_fold_byte(c as u8) as char);
                continue;
            }
            for e in CONFUSABLES {
                if e.unicode.contains(&c) {
                    out.push(e.source);
                    continue 'chars;
                }
            }
            out.push(c); // unknown non-ASCII: keep, detector will reject
        }
        out
    }

    /// Whether the label contains at least one non-source character that
    /// folds back to ASCII (i.e. the label is a *candidate* homograph).
    pub fn has_confusable(&self, label: &str) -> bool {
        label
            .chars()
            .any(|c| !c.is_ascii() && CONFUSABLES.iter().any(|e| e.unicode.contains(&c)))
            || label.contains('0')
            || label.contains('5')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_has_at_least_23_unicode_variants() {
        // The paper: "there are 23 different unicode characters that look
        // similar to the letter a, but DNSTwist only catches 13 of them."
        let t = ConfusableTable::new();
        let count = CONFUSABLES[0].unicode.len();
        assert_eq!(CONFUSABLES[0].source, 'a');
        assert!(count >= 23, "need >= 23 variants for 'a', have {count}");
        assert!(t.variant_count('a') >= 23);
    }

    #[test]
    fn every_letter_has_variants() {
        let t = ConfusableTable::new();
        for c in 'a'..='z' {
            assert!(
                t.variant_count(c) + t.sequences(c).len() > 0,
                "letter {c} has no confusables"
            );
        }
    }

    #[test]
    fn skeleton_folds_paper_examples() {
        let t = ConfusableTable::new();
        assert_eq!(t.skeleton("fàcebook"), "facebook");
        assert_eq!(t.skeleton("faceb00k"), "facebook");
        assert_eq!(t.skeleton("facebooκ"), "facebook");
        assert_eq!(t.skeleton("gооgle"), "google"); // Cyrillic о
        assert_eq!(t.skeleton(&"paypaI".to_ascii_lowercase()), "paypai"); // I->i handled by lowering
    }

    #[test]
    fn sequences_cover_rn_for_m() {
        let t = ConfusableTable::new();
        assert!(t.sequences('m').contains(&"rn"));
        assert!(t.sequences('w').contains(&"vv"));
    }

    #[test]
    fn skeleton_keeps_unknown_chars() {
        let t = ConfusableTable::new();
        assert_eq!(t.skeleton("漢字"), "漢字");
    }

    #[test]
    fn has_confusable_detects_candidates() {
        let t = ConfusableTable::new();
        assert!(t.has_confusable("fàcebook"));
        assert!(t.has_confusable("faceb00k"));
        assert!(!t.has_confusable("facebook"));
    }

    #[test]
    fn variants_iterator_matches_count() {
        let t = ConfusableTable::new();
        for c in 'a'..='z' {
            assert_eq!(t.variants(c).count(), t.variant_count(c));
        }
    }

    #[test]
    fn canonical_fold_is_idempotent_and_unifies_classes() {
        for b in 0u8..128 {
            let once = ConfusableTable::canonical_fold_byte(b);
            assert_eq!(once, ConfusableTable::canonical_fold_byte(once));
        }
        // Every mutually-confusable class collapses to one representative.
        for class in [&b"0o"[..], b"5s", b"1il", b"qg", b"uv", b"2z"] {
            let rep = ConfusableTable::canonical_fold_byte(class[0]);
            for &b in class {
                assert_eq!(ConfusableTable::canonical_fold_byte(b), rep);
            }
        }
    }

    #[test]
    fn no_source_appears_in_own_variants() {
        for e in CONFUSABLES {
            assert!(!e.unicode.contains(&e.source));
            assert!(!e.ascii.contains(&e.source));
        }
    }

    /// The homograph generator skips no duplicates: it relies on each
    /// source listing a glyph or sequence once, on the Unicode and ASCII
    /// lists being what their names say, and on no sequence starting with
    /// the character it imitates.
    #[test]
    fn variants_are_distinct_and_sequences_never_start_with_their_source() {
        for e in CONFUSABLES {
            let glyphs: std::collections::HashSet<char> =
                e.unicode.iter().chain(e.ascii).copied().collect();
            assert_eq!(
                glyphs.len(),
                e.unicode.len() + e.ascii.len(),
                "{}",
                e.source
            );
            assert!(e.unicode.iter().all(|c| !c.is_ascii()), "{}", e.source);
            assert!(e.ascii.iter().all(char::is_ascii), "{}", e.source);
            let seqs: std::collections::HashSet<&str> = e.sequences.iter().copied().collect();
            assert_eq!(seqs.len(), e.sequences.len(), "{}", e.source);
            for seq in e.sequences {
                assert!(
                    seq.chars().count() > 1 && !seq.starts_with(e.source),
                    "{seq}"
                );
            }
        }
    }
}
