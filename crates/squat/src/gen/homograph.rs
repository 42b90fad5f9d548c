//! Homograph-squatting generator (paper §3.1): visually confusable labels,
//! both plain-ASCII glyph tricks (`faceb00k`) and IDN confusables
//! (`fàcebook` → `xn--fcebook-8va`).

use squatphi_domain::ConfusableTable;

static TABLE: ConfusableTable = ConfusableTable::new();

/// Two-position swaps use the first few Unicode variants per position, to
/// keep the candidate set near-linear.
const PER_POS: usize = 2;

/// Homograph candidates for a label (Unicode output — callers punycode the
/// non-ASCII ones), generated lazily in a fixed order:
/// 1. single-character ASCII swaps (`0` for `o` …),
/// 2. multi-character sequence swaps (`rn` for `m` …),
/// 3. single-character Unicode confusable swaps,
/// 4. double-`0` style swaps of repeated letters (`faceb00k`),
/// 5. two-character Unicode swaps (first × second positions, capped).
///
/// Nothing needs deduplicating: every candidate differs from the label in
/// exactly the positions its step swaps (a variant is never its source,
/// a sequence never starts with it), steps 1 and 4 swap in ASCII glyphs
/// and steps 3 and 5 non-ASCII ones, step 2 alone lengthens the label, and
/// no source lists a glyph twice — `confusables::tests` pins the table.
///
/// ```
/// use squatphi_squat::gen::homograph_candidates;
/// let c: Vec<String> = homograph_candidates("facebook").collect();
/// assert!(c.contains(&"faceb00k".to_string()));
/// assert!(c.contains(&"fàcebook".to_string()));
/// ```
pub fn homograph_candidates(label: &str) -> impl Iterator<Item = String> + '_ {
    let ascii_swaps = label.char_indices().flat_map(move |(at, c)| {
        TABLE
            .variants(c)
            .filter(char::is_ascii)
            .map(move |v| replace(label, &[(at, c, v)]))
    });
    let sequence_swaps = label.char_indices().flat_map(move |(at, c)| {
        TABLE.sequences(c).iter().map(move |seq| {
            let mut s = String::with_capacity(label.len() + seq.len());
            s.push_str(&label[..at]);
            s.push_str(seq);
            s.push_str(&label[at + c.len_utf8()..]);
            s
        })
    });
    let unicode_swaps = label
        .char_indices()
        .flat_map(move |(at, c)| unicode_variants(c).map(move |v| replace(label, &[(at, c, v)])));
    let repeated_swaps = label
        .char_indices()
        .zip(label.chars().skip(1))
        .filter(|&((_, c), next)| c == next)
        .flat_map(move |((at, c), _)| {
            let next_at = at + c.len_utf8();
            TABLE
                .variants(c)
                .filter(char::is_ascii)
                .map(move |v| replace(label, &[(at, c, v), (next_at, c, v)]))
        });
    let pair_swaps = label.char_indices().flat_map(move |(i, ci)| {
        let after = i + ci.len_utf8();
        label[after..].char_indices().flat_map(move |(dj, cj)| {
            unicode_variants(ci).take(PER_POS).flat_map(move |a| {
                unicode_variants(cj)
                    .take(PER_POS)
                    .map(move |b| replace(label, &[(i, ci, a), (after + dj, cj, b)]))
            })
        })
    });
    ascii_swaps
        .chain(sequence_swaps)
        .chain(unicode_swaps)
        .chain(repeated_swaps)
        .chain(pair_swaps)
}

fn unicode_variants(c: char) -> impl Iterator<Item = char> {
    TABLE.variants(c).filter(|v| !v.is_ascii())
}

/// `label` with each `(byte offset, old char, new char)` swapped in;
/// `swaps` is in offset order.
fn replace(label: &str, swaps: &[(usize, char, char)]) -> String {
    let mut s = String::with_capacity(label.len() + 4 * swaps.len());
    let mut from = 0;
    for &(at, old, new) in swaps {
        s.push_str(&label[from..at]);
        s.push(new);
        from = at + old.len_utf8();
    }
    s.push_str(&label[from..]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_domain::{idna, ConfusableTable};

    fn homograph_list(label: &str) -> Vec<String> {
        homograph_candidates(label).collect()
    }

    #[test]
    fn paper_examples_present() {
        let c = homograph_list("facebook");
        assert!(c.contains(&"faceb00k".to_string()), "Table 1: faceb00k.pw");
        assert!(
            c.contains(&"fàcebook".to_string()),
            "Table 1: xn--fcebook-8va"
        );
        assert!(c.contains(&"facebooκ".to_string()), "Table 10: Greek kappa");
    }

    #[test]
    fn goog1e_and_drapbox_style() {
        assert!(homograph_list("google").contains(&"goog1e".to_string()));
        // drapbox (Table 10 lists it as homograph: a for o).
        let c = homograph_list("dropbox");
        assert!(c.iter().any(|s| !s.is_ascii()), "unicode variants exist");
    }

    #[test]
    fn all_candidates_fold_back_to_source() {
        let t = ConfusableTable::new();
        // Ambiguous ASCII glyphs cannot be folded deterministically; the
        // detector resolves them with substitution probes instead.
        let ambiguous: &[char] = &['1', 'i', 'l', 'q', 'g', 'u', 'v', '2'];
        for cand in homograph_candidates("paypal") {
            let folded = t.skeleton(&cand);
            if folded.chars().count() == "paypal".chars().count()
                && !cand.chars().any(|c| ambiguous.contains(&c))
            {
                assert_eq!(folded, "paypal", "candidate {cand} folds to {folded}");
            }
        }
    }

    #[test]
    fn unicode_candidates_punycode_round_trip() {
        for cand in homograph_candidates("uber").filter(|c| !c.is_ascii()) {
            let ascii = idna::to_ascii(&cand).expect("encodable");
            assert!(ascii.starts_with("xn--"));
            assert_eq!(idna::to_unicode(&ascii), cand);
        }
    }

    #[test]
    fn rn_sequence_for_m() {
        let c = homograph_list("amazon");
        assert!(c.contains(&"arnazon".to_string()));
    }

    #[test]
    fn deduplicated() {
        let c = homograph_list("citi");
        let mut s = c.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), c.len());
    }
}
