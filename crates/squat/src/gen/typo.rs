//! Typo-squatting generator (paper §3.1): insertion, omission, repetition
//! and vowel/adjacent swap.

/// The four typo operations the paper enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypoOp {
    /// Add an extra character (`facebo0ok`).
    Insertion,
    /// Delete a character (`facebok`).
    Omission,
    /// Duplicate a character (`faceboook`).
    Repetition,
    /// Swap two consecutive characters (`fcaebook`).
    Swap,
}

/// QWERTY adjacency used to keep insertions plausible — a fat-fingered key
/// lands on a neighbor of the intended key.
pub(super) fn qwerty_neighbors(c: char) -> &'static str {
    match c {
        'q' => "wa1",
        'w' => "qes2",
        'e' => "wrd3",
        'r' => "etf4",
        't' => "ryg5",
        'y' => "tuh6",
        'u' => "yij7",
        'i' => "uok8",
        'o' => "ipl9",
        'p' => "ol0",
        'a' => "qsz",
        's' => "awdx",
        'd' => "sefc",
        'f' => "drgv",
        'g' => "fthb",
        'h' => "gyjn",
        'j' => "hukm",
        'k' => "jil",
        'l' => "kop",
        'z' => "asx",
        'x' => "zsdc",
        'c' => "xdfv",
        'v' => "cfgb",
        'b' => "vghn",
        'n' => "bhjm",
        'm' => "njk",
        '0' => "po",
        '1' => "q2",
        '2' => "w13",
        '3' => "e24",
        '4' => "r35",
        '5' => "t46",
        '6' => "y57",
        '7' => "u68",
        '8' => "i79",
        '9' => "o80",
        _ => "",
    }
}

pub(super) fn valid_label(l: &str) -> bool {
    !l.is_empty()
        && !l.starts_with('-')
        && !l.ends_with('-')
        && l.len() <= 63
        && l.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

/// All typo candidates for a label, tagged with the operation that produced
/// them, generated lazily. Deterministic order: omissions, repetitions,
/// swaps, insertions; duplicates, the label itself and invalid DNS labels
/// are skipped.
///
/// ```
/// use squatphi_squat::gen::typo_candidates;
/// let cands: Vec<_> = typo_candidates("facebook").collect();
/// assert!(cands.iter().any(|(l, _)| l == "fcaebook")); // swap (Table 1)
/// assert!(cands.iter().any(|(l, _)| l == "faceboook")); // repetition
/// ```
pub fn typo_candidates(label: &str) -> impl Iterator<Item = (String, TypoOp)> + '_ {
    // Omission: delete each character.
    let omissions = label.char_indices().map(move |(at, c)| {
        let mut s = String::with_capacity(label.len());
        s.push_str(&label[..at]);
        s.push_str(&label[at + c.len_utf8()..]);
        (s, TypoOp::Omission)
    });
    // Repetition: double each character.
    let repetitions = label.char_indices().map(move |(at, c)| {
        let end = at + c.len_utf8();
        let mut s = String::with_capacity(label.len() + c.len_utf8());
        s.push_str(&label[..end]);
        s.push(c);
        s.push_str(&label[end..]);
        (s, TypoOp::Repetition)
    });
    // Swap: transpose each adjacent pair.
    let swaps = label
        .char_indices()
        .zip(label.chars().skip(1))
        .map(move |((at, c), next)| {
            let mut s = String::with_capacity(label.len());
            s.push_str(&label[..at]);
            s.push(next);
            s.push(c);
            s.push_str(&label[at + c.len_utf8() + next.len_utf8()..]);
            (s, TypoOp::Swap)
        });
    // Insertion: QWERTY-neighbor of the key at each boundary, plus the
    // always-popular `0`/digit insertions seen in the wild (`facebo0ok`).
    let boundaries = label
        .char_indices()
        .map(|(at, _)| at)
        .chain(std::iter::once(label.len()));
    let insertions = boundaries.flat_map(move |at| {
        let mut pool: Vec<char> = Vec::new();
        if let Some(before) = label[..at].chars().next_back() {
            pool.extend(qwerty_neighbors(before).chars());
        }
        if let Some(after) = label[at..].chars().next() {
            pool.extend(qwerty_neighbors(after).chars());
        }
        pool.push('0');
        pool.sort_unstable();
        pool.dedup();
        pool.into_iter().map(move |c| {
            let mut s = String::with_capacity(label.len() + 1);
            s.push_str(&label[..at]);
            s.push(c);
            s.push_str(&label[at..]);
            (s, TypoOp::Insertion)
        })
    });
    let mut seen = std::collections::HashSet::new();
    omissions
        .chain(repetitions)
        .chain(swaps)
        .chain(insertions)
        .filter(move |(s, _)| s != label && valid_label(s) && seen.insert(s.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_examples_present() {
        let cands: Vec<_> = typo_candidates("facebook").collect();
        let labels: Vec<&str> = cands.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"fcaebook"), "vowel-swap example");
        // facebo0ok = insert '0' between o and o.
        assert!(labels.contains(&"facebo0ok"), "insertion example");
        assert!(labels.contains(&"facebok"), "omission");
        assert!(labels.contains(&"faceboook"), "repetition");
    }

    #[test]
    fn ops_are_tagged_correctly() {
        for (l, op) in typo_candidates("ab") {
            match op {
                TypoOp::Omission => assert_eq!(l.len(), 1),
                TypoOp::Repetition | TypoOp::Insertion => assert_eq!(l.len(), 3),
                TypoOp::Swap => assert_eq!(l, "ba"),
            }
        }
    }

    #[test]
    fn no_duplicates_or_identity() {
        let cands: Vec<_> = typo_candidates("paypal").collect();
        let mut labels: Vec<&String> = cands.iter().map(|(l, _)| l).collect();
        let before = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), before);
        assert!(!cands.iter().any(|(l, _)| l == "paypal"));
    }

    #[test]
    fn all_outputs_are_valid_labels() {
        for (l, _) in typo_candidates("google") {
            assert!(valid_label(&l), "invalid label {l}");
        }
    }

    #[test]
    fn single_char_label_degenerates_gracefully() {
        // Omission of a 1-char label would be empty — must be filtered.
        assert!(typo_candidates("a").all(|(l, _)| !l.is_empty()));
    }
}
