//! Dictionary spell checker for OCR-error correction (paper §5.2:
//! "Tesseract sometimes introduces errors such as passwod, which can be
//! easily corrected to password by a spell checker").

use std::collections::HashMap;

/// The task dictionary: phishing-salient keywords the feature pipeline
/// cares about. Brand names are added per-registry at construction.
pub const BASE_DICTIONARY: &[&str] = &[
    "account",
    "address",
    "agree",
    "bank",
    "billing",
    "card",
    "cash",
    "click",
    "confirm",
    "continue",
    "create",
    "credentials",
    "credit",
    "customer",
    "debit",
    "details",
    "email",
    "enter",
    "forgot",
    "free",
    "help",
    "here",
    "home",
    "identity",
    "invoice",
    "limited",
    "log",
    "login",
    "member",
    "mobile",
    "money",
    "name",
    "number",
    "offer",
    "online",
    "password",
    "pay",
    "payment",
    "phone",
    "please",
    "prize",
    "register",
    "reset",
    "secure",
    "security",
    "sign",
    "signin",
    "submit",
    "support",
    "suspended",
    "transfer",
    "update",
    "upgrade",
    "urgent",
    "username",
    "verify",
    "wallet",
    "welcome",
    "win",
    "your",
];

/// Edit-distance-≤2 spell checker over a fixed dictionary with
/// frequency-free nearest-match semantics (ties break to the shorter,
/// then lexicographically smaller word — deterministic).
///
/// Lookup goes through a deletion-neighbourhood index: two strings within
/// edit distance `d` share a variant reachable from each by deleting at
/// most `d` bytes, so the dictionary words that can be within a token's
/// budget are exactly those sharing a fingerprint with one of the token's
/// own deletion variants. Fingerprints may collide — every candidate is
/// verified by [`bounded_levenshtein`] — so the answer is the one a scan
/// of the whole dictionary gives.
#[derive(Debug, Clone)]
pub struct SpellChecker {
    words: Vec<String>,
    exact: HashMap<String, usize>,
    max_distance: usize,
    /// `(fingerprint, word id)` for every word with up to `max_distance`
    /// bytes deleted, sorted.
    index: Vec<(u64, u32)>,
    max_word_len: usize,
}

/// Calls `f` with a fingerprint of `word` and of every variant of it with
/// one byte deleted, or one or two when `max` is 2.
fn deletion_fingerprints(word: &[u8], max: usize, mut f: impl FnMut(u64)) {
    let n = word.len();
    // A polynomial hash of the kept bytes (odd golden-ratio base, as in
    // `squat::index`); index `n` is past the end: "skip nothing".
    let fingerprint = |skip: [usize; 2]| {
        let kept = word.iter().enumerate().filter(|(i, _)| !skip.contains(i));
        kept.fold(0u64, |h, (_, &b)| {
            h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(b) + 1)
        })
    };
    f(fingerprint([n, n]));
    for i in 0..n {
        f(fingerprint([i, n]));
        if max >= 2 {
            for j in i + 1..n {
                f(fingerprint([i, j]));
            }
        }
    }
}

impl SpellChecker {
    /// Builds a checker over [`BASE_DICTIONARY`] plus `extra` words
    /// (typically brand labels).
    pub fn new<I, S>(extra: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut words: Vec<String> = BASE_DICTIONARY.iter().map(|w| w.to_string()).collect();
        for w in extra {
            let w = w.as_ref().to_ascii_lowercase();
            if !w.is_empty() {
                words.push(w);
            }
        }
        words.sort();
        words.dedup();
        let exact = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        let max_distance = 2;
        let mut index = Vec::new();
        for (id, w) in words.iter().enumerate() {
            deletion_fingerprints(w.as_bytes(), max_distance, |fp| index.push((fp, id as u32)));
        }
        index.sort_unstable();
        index.dedup();
        SpellChecker {
            max_word_len: words.iter().map(String::len).max().unwrap_or(0),
            words,
            exact,
            max_distance,
            index,
        }
    }

    /// Number of dictionary words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `word` is a dictionary word.
    pub fn contains(&self, word: &str) -> bool {
        self.exact.contains_key(word)
    }

    /// Corrects a token: exact dictionary hits and very short tokens pass
    /// through; otherwise the nearest dictionary word within distance 2
    /// (scaled down to 1 for tokens of length ≤ 4) is returned; tokens
    /// with no near word pass through unchanged.
    pub fn correct<'a>(&'a self, word: &'a str) -> &'a str {
        if word.len() <= 2 || self.contains(word) {
            return word;
        }
        let budget = if word.len() <= 4 {
            1
        } else {
            self.max_distance
        };
        if word.len() > self.max_word_len + budget {
            return word;
        }
        let mut best: Option<(&str, usize)> = None;
        deletion_fingerprints(word.as_bytes(), budget, |fp| {
            let start = self.index.partition_point(|e| e.0 < fp);
            for &(_, id) in self.index[start..].iter().take_while(|e| e.0 == fp) {
                let w = &self.words[id as usize];
                if let Some(d) = bounded_levenshtein(word, w, budget) {
                    let better = match best {
                        None => true,
                        Some((bw, bd)) => {
                            d < bd || (d == bd && (w.len(), w.as_str()) < (bw.len(), bw))
                        }
                    };
                    if better {
                        best = Some((w, d));
                    }
                }
            }
        });
        best.map(|(w, _)| w).unwrap_or(word)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn checker() -> SpellChecker {
        SpellChecker::new(["paypal", "facebook", "google"])
    }

    impl SpellChecker {
        /// The pre-index `correct`, kept verbatim as the oracle: a bounded
        /// Levenshtein against every dictionary word.
        fn correct_linear<'a>(&'a self, word: &'a str) -> &'a str {
            if word.len() <= 2 || self.contains(word) {
                return word;
            }
            let budget = if word.len() <= 4 {
                1
            } else {
                self.max_distance
            };
            let mut best: Option<(&str, usize)> = None;
            for w in &self.words {
                // Cheap length gate.
                if w.len().abs_diff(word.len()) > budget {
                    continue;
                }
                let d = bounded_levenshtein(word, w, budget);
                if let Some(d) = d {
                    let better = match best {
                        None => true,
                        Some((bw, bd)) => {
                            d < bd || (d == bd && (w.len(), w.as_str()) < (bw.len(), bw))
                        }
                    };
                    if better {
                        best = Some((w, d));
                    }
                }
            }
            best.map(|(w, _)| w).unwrap_or(word)
        }
    }

    /// Brand-like labels with the shapes that stress the index: repeated
    /// letters, shared prefixes, digits, a hyphen, words shorter than the
    /// pass-through length and longer than any base word.
    const LABELS: &[&str] = &[
        "paypal",
        "paypa1",
        "facebook",
        "google",
        "googledrive",
        "go",
        "att",
        "aol",
        "usaa",
        "wells-fargo",
        "bankofamerica",
        "bankofmontreal",
        "americanexpress",
        "ebay",
        "eba",
        "hsbc",
        "santander",
        "apple",
        "appleid",
        "aaaa",
        "aaaaaa",
        "1and1",
        "t-online",
    ];

    /// Applies substitutions, deletions and insertions to an ASCII word.
    fn edit(word: &str, edits: &[(u8, usize, u8)]) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
        let mut bytes = word.as_bytes().to_vec();
        for &(kind, at, byte) in edits {
            let byte = ALPHABET[byte as usize % ALPHABET.len()];
            let n = bytes.len();
            match kind % 3 {
                0 if n > 0 => bytes[at % n] = byte,
                1 if n > 0 => drop(bytes.remove(at % n)),
                _ => bytes.insert(at % (n + 1), byte),
            }
        }
        String::from_utf8(bytes).expect("ASCII edits of an ASCII word")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn index_lookup_equals_the_linear_scan(
            pick in any::<usize>(),
            edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..4),
        ) {
            static CHECKER: std::sync::OnceLock<SpellChecker> = std::sync::OnceLock::new();
            let c = CHECKER.get_or_init(|| SpellChecker::new(LABELS));
            let token = edit(&c.words[pick % c.words.len()], &edits);
            prop_assert_eq!(c.correct(&token), c.correct_linear(&token), "token {:?}", token);
        }
    }

    #[test]
    fn budget_drops_to_one_at_length_four() {
        let c = SpellChecker::new(LABELS);
        // Length 4 at distance 1, at distance 2 (over budget); length 5
        // at distance 2.
        assert_eq!(c.correct("cxsh"), "cash");
        assert_eq!(c.correct("cxxh"), "cxxh");
        assert_eq!(c.correct("caxxh"), "cash");
        // Every token of length 3..=5 over a small alphabet, so both
        // sides of the boundary meet every kind of near miss.
        let mut tokens = vec![String::new()];
        for len in 1..=5 {
            tokens = tokens
                .iter()
                .flat_map(|t| "achps".chars().map(move |c| format!("{t}{c}")))
                .collect();
            if len >= 3 {
                for t in &tokens {
                    assert_eq!(c.correct(t), c.correct_linear(t), "token {t:?}");
                }
            }
        }
    }

    #[test]
    fn paper_example_passwod() {
        assert_eq!(checker().correct("passwod"), "password");
    }

    #[test]
    fn exact_words_pass_through() {
        let c = checker();
        assert_eq!(c.correct("password"), "password");
        assert_eq!(c.correct("paypal"), "paypal");
    }

    #[test]
    fn brand_typos_corrected() {
        let c = checker();
        assert_eq!(c.correct("paypol"), "paypal");
        assert_eq!(c.correct("facebok"), "facebook");
    }

    #[test]
    fn unknown_tokens_unchanged() {
        let c = checker();
        assert_eq!(c.correct("zxqwvk"), "zxqwvk");
        assert_eq!(c.correct("blockchainstuff"), "blockchainstuff");
    }

    #[test]
    fn short_tokens_untouched() {
        let c = checker();
        assert_eq!(c.correct("ok"), "ok");
        assert_eq!(c.correct("a"), "a");
    }

    #[test]
    fn ties_are_deterministic() {
        let c = checker();
        let first = c.correct("sign");
        for _ in 0..5 {
            assert_eq!(c.correct("sign"), first);
        }
    }

    #[test]
    fn bounded_levenshtein_honors_budget() {
        assert_eq!(bounded_levenshtein("abc", "abd", 2), Some(1));
        assert_eq!(bounded_levenshtein("abc", "xyz", 2), None);
        assert_eq!(bounded_levenshtein("same", "same", 0), Some(0));
    }

    #[test]
    fn dictionary_dedupes() {
        let c = SpellChecker::new(["password", "password", "login"]);
        let n = c.len();
        assert_eq!(n, BASE_DICTIONARY.len()); // both extras already present
    }
}
