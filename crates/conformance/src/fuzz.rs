//! Never-panic fuzzer: `html::parse`/`tokenize` over structure-aware
//! mutations of realistic documents. It replays the on-disk corpus
//! (`corpus/html/`, compiled in with `include_str!` so the CLI works from
//! any working directory) before exploring seeded mutants. The only
//! property checked is *totality*: the parser may reject anything, but it
//! must return, not panic or hang.

use crate::report::Violation;
use crate::shrink::minimize_str;
use crate::Params;
use rand::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The HTML corpus, replayed verbatim and used as mutation seeds.
const HTML_CORPUS: &[(&str, &str)] = &[
    (
        "login_form.html",
        include_str!("../corpus/html/login_form.html"),
    ),
    (
        "broken_nesting.html",
        include_str!("../corpus/html/broken_nesting.html"),
    ),
    (
        "evasive_entities.html",
        include_str!("../corpus/html/evasive_entities.html"),
    ),
];

fn html_panics(input: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = squatphi_html::tokenize(input);
        let _ = squatphi_html::parse(input);
    }))
    .is_err()
}

/// Fragments the HTML mutator splices in: the structures most likely to
/// confuse a tokenizer state machine.
const FRAGMENTS: &[&str] = &[
    "<",
    ">",
    "<<",
    "</",
    "<!",
    "<!--",
    "-->",
    "<div",
    "</div>",
    "<script>",
    "</script>",
    "<input type=\"",
    "='",
    "&#x",
    "&#",
    "&amp",
    "\"",
    "'",
    "<form action=",
    "]]>",
    "<![CDATA[",
    "<p/>",
    "< p>",
    "\0",
];

fn mutate_html(rng: &mut StdRng, base: &str) -> String {
    let mut out: Vec<u8> = base.bytes().collect();
    for _ in 0..rng.gen_range(1..=5usize) {
        match rng.gen_range(0..4u8) {
            // Splice in a fragment.
            0 => {
                let frag = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
                let i = rng.gen_range(0..=out.len());
                out.splice(i..i, frag.bytes());
            }
            // Duplicate a random region.
            1 if !out.is_empty() => {
                let a = rng.gen_range(0..out.len());
                let b = (a + rng.gen_range(1..=32usize)).min(out.len());
                let region: Vec<u8> = out[a..b].to_vec();
                let i = rng.gen_range(0..=out.len());
                out.splice(i..i, region);
            }
            // Delete a random region.
            2 if !out.is_empty() => {
                let a = rng.gen_range(0..out.len());
                let b = (a + rng.gen_range(1..=32usize)).min(out.len());
                out.drain(a..b);
            }
            // Truncate (mid-tag truncation is the classic parser killer).
            _ => out.truncate(rng.gen_range(0..=out.len())),
        }
    }
    // Mutations operate on bytes; corpus seeds are ASCII so this is
    // lossless, but be safe about spliced multi-byte boundaries.
    String::from_utf8_lossy(&out).into_owned()
}

/// Corpus replay + structure-aware mutations through the HTML pipeline.
pub(crate) fn run_html(seed: u64, params: &Params) -> (u64, Vec<Violation>) {
    let mut cases = 0u64;
    let mut violations = Vec::new();
    let check = |input: &str, origin: &str, violations: &mut Vec<Violation>| {
        if html_panics(input) {
            let shrunk = minimize_str(input, html_panics);
            violations.push(Violation {
                oracle: "html-fuzz",
                input: shrunk,
                detail: format!("html parse/tokenize panicked ({origin})"),
            });
        }
    };

    for (name, contents) in HTML_CORPUS {
        cases += 1;
        check(contents, &format!("corpus {name}"), &mut violations);
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x6874_6d6c_6675_7a7a); // "htmlfuzz"
    for i in 0..params.html_fuzz_cases {
        let base = HTML_CORPUS[i % HTML_CORPUS.len()].1;
        let mutant = mutate_html(&mut rng, base);
        cases += 1;
        check(&mutant, "mutant", &mut violations);
    }
    (cases, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    #[test]
    fn corpus_html_is_nonempty() {
        for (name, contents) in HTML_CORPUS {
            assert!(!contents.trim().is_empty(), "{name} empty");
        }
    }

    #[test]
    fn fuzzers_are_clean_and_deterministic() {
        let mut p = Budget::Ci.params();
        p.html_fuzz_cases = 120;
        let (c1, v1) = run_html(11, &p);
        let (c2, v2) = run_html(11, &p);
        assert_eq!((c1, &v1), (c2, &v2));
        assert!(v1.is_empty(), "{v1:#?}");
    }
}
