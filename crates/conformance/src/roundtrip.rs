//! Round-trip oracles: punycode and IDNA.

use crate::report::Violation;
use crate::Params;
use rand::prelude::*;
use squatphi_domain::{idna, punycode};
use squatphi_prop::shrink::minimize_str;

/// The RFC 3492 §7.1 sample strings, `(description, unicode, punycode)`.
///
/// The Unicode column is the exact code-point sequence the RFC lists; the
/// encoded column is the RFC's published output. Sample (I) incorporates
/// RFC erratum 423: the mixed-case annotation put an uppercase `D` in the
/// published string, but the Russian input has no uppercase letters, so
/// the correct encoding is all-lowercase.
pub const RFC3492_VECTORS: &[(&str, &str, &str)] = &[
    (
        "(A) Arabic (Egyptian)",
        "ليهمابتكلموشعربي؟",
        "egbpdaj6bu4bxfgehfvwxn",
    ),
    (
        "(B) Chinese (simplified)",
        "他们为什么不说中文",
        "ihqwcrb4cv8a8dqg056pqjye",
    ),
    (
        "(C) Chinese (traditional)",
        "他們爲什麽不說中文",
        "ihqwctvzc91f659drss3x8bo0yb",
    ),
    (
        "(D) Czech",
        "Pročprostěnemluvíčesky",
        "Proprostnemluvesky-uyb24dma41a",
    ),
    (
        "(E) Hebrew",
        "למההםפשוטלאמדבריםעברית",
        "4dbcagdahymbxekheh6e0a7fei0b",
    ),
    (
        "(F) Hindi (Devanagari)",
        "यहलोगहिन्दीक्योंनहींबोलसकतेहैं",
        "i1baa7eci9glrd9b2ae1bj0hfcgg6iyaf8o0a1dig0cd",
    ),
    (
        "(G) Japanese (kanji and hiragana)",
        "なぜみんな日本語を話してくれないのか",
        "n8jok5ay5dzabd5bym9f0cm5685rrjetr6pdxa",
    ),
    (
        "(H) Korean (Hangul syllables)",
        "세계의모든사람들이한국어를이해한다면얼마나좋을까",
        "989aomsvi5e83db1d2a355cv1e0vak1dwrv93d5xbh15a0dt30a5jpsd879ccm6fea98c",
    ),
    (
        "(I) Russian (Cyrillic)",
        "почемужеонинеговорятпорусски",
        "b1abfaaepdrnnbgefbadotcwatmq2g4l",
    ),
    (
        "(J) Spanish",
        "PorquénopuedensimplementehablarenEspañol",
        "PorqunopuedensimplementehablarenEspaol-fmd56a",
    ),
    (
        "(K) Vietnamese",
        "TạisaohọkhôngthểchỉnóitiếngViệt",
        "TisaohkhngthchnitingVit-kjcr8268qyxafd2f1b9g",
    ),
    (
        "(L) 3<nen>B<gumi><kinpachi><sensei>",
        "3年B組金八先生",
        "3B-ww4c5e180e575a65lsy2b",
    ),
    (
        "(M) <amuro><namie>-with-SUPER-MONKEYS",
        "安室奈美恵-with-SUPER-MONKEYS",
        "-with-SUPER-MONKEYS-pc58ag80a8qai00g7n9n",
    ),
    (
        "(N) Hello-Another-Way-<sorezore><no><basho>",
        "Hello-Another-Way-それぞれの場所",
        "Hello-Another-Way--fc4qua05auwb3674vfr0b",
    ),
    (
        "(O) <hitotsu><yane><no><shita>2",
        "ひとつ屋根の下2",
        "2-u9tlzr9756bt3uc0v",
    ),
    (
        "(P) Maji<de>Koi<suru>5<byou><mae>",
        "MajiでKoiする5秒前",
        "MajiKoi5-783gue6qz075azm5e",
    ),
    (
        "(Q) <pafii>de<runba>",
        "パフィーdeルンバ",
        "de-jg4avhby1noc0d",
    ),
    (
        "(R) <sono><supiido><de>",
        "そのスピードで",
        "d9juau41awczczp",
    ),
    ("(S) -> $1.00 <-", "-> $1.00 <-", "-> $1.00 <--"),
];

/// Character pools for seeded Unicode string generation: ASCII, Latin
/// accents, Greek, Cyrillic and CJK — the scripts the homograph pipeline
/// actually meets.
const POOLS: &[&[char]] = &[
    &['a', 'b', 'c', 'k', 'x', 'y', 'z', '0', '9', '-'],
    &['à', 'é', 'ï', 'ö', 'ü', 'ñ', 'ç', 'ø'],
    &['α', 'β', 'γ', 'δ', 'κ', 'π', 'ρ'],
    &['а', 'е', 'о', 'р', 'с', 'х', 'і'],
    &['日', '本', '語', '金', '先', '生', '下'],
];

fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| {
            let pool = POOLS[rng.gen_range(0..POOLS.len())];
            pool[rng.gen_range(0..pool.len())]
        })
        .collect()
}

fn puny_violation(input: &str, detail: String) -> Violation {
    let shrunk = minimize_str(input, |s| match punycode::encode(s) {
        Ok(enc) => punycode::decode(&enc).map(|d| d != s).unwrap_or(true),
        Err(_) => false,
    });
    Violation {
        oracle: "punycode-roundtrip",
        input: shrunk,
        detail,
    }
}

/// RFC 3492 fixed vectors + seeded random encode/decode round trips.
pub(crate) fn run_punycode(seed: u64, params: &Params) -> (u64, Vec<Violation>) {
    let mut cases = 0u64;
    let mut violations = Vec::new();

    for &(name, unicode, encoded) in RFC3492_VECTORS {
        cases += 1;
        match punycode::encode(unicode) {
            Ok(got) if got == encoded => {}
            Ok(got) => violations.push(Violation {
                oracle: "punycode-roundtrip",
                input: unicode.to_string(),
                detail: format!("RFC 3492 {name}: encoded to {got:?}, RFC says {encoded:?}"),
            }),
            Err(e) => violations.push(Violation {
                oracle: "punycode-roundtrip",
                input: unicode.to_string(),
                detail: format!("RFC 3492 {name}: encode failed: {e}"),
            }),
        }
        cases += 1;
        match punycode::decode(encoded) {
            Ok(got) if got == unicode => {}
            Ok(got) => violations.push(Violation {
                oracle: "punycode-roundtrip",
                input: encoded.to_string(),
                detail: format!("RFC 3492 {name}: decoded to {got:?}"),
            }),
            Err(e) => violations.push(Violation {
                oracle: "punycode-roundtrip",
                input: encoded.to_string(),
                detail: format!("RFC 3492 {name}: decode failed: {e}"),
            }),
        }
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7075_6e79_636f_6465); // "punycode"
    for _ in 0..params.punycode_cases {
        let s = random_string(&mut rng, 12);
        cases += 1;
        match punycode::encode(&s) {
            Ok(enc) => {
                if !enc.is_ascii() {
                    violations.push(puny_violation(&s, format!("non-ASCII encoding {enc:?}")));
                    continue;
                }
                match punycode::decode(&enc) {
                    Ok(back) if back == s => {}
                    Ok(back) => violations.push(puny_violation(
                        &s,
                        format!("round trip {s:?} → {enc:?} → {back:?}"),
                    )),
                    Err(e) => violations.push(puny_violation(
                        &s,
                        format!("decode of own encoding {enc:?} failed: {e}"),
                    )),
                }
            }
            // Encode may legitimately overflow on pathological inputs;
            // our pools cannot trigger that, so treat it as a violation.
            Err(e) => violations.push(puny_violation(&s, format!("encode failed: {e}"))),
        }
    }
    (cases, violations)
}

/// Seeded Unicode domains through `to_ascii` → `to_unicode`.
pub(crate) fn run_idna(seed: u64, params: &Params) -> (u64, Vec<Violation>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6964_6e61); // "idna"
    let mut cases = 0u64;
    let mut violations = Vec::new();

    for _ in 0..params.idna_cases {
        let labels = rng.gen_range(1..=3usize);
        let domain = (0..labels)
            .map(|_| {
                let mut l = random_string(&mut rng, 8);
                if l.is_empty() || l.starts_with("xn--") || l.starts_with('-') {
                    // Keep labels plausible: non-empty, not accidentally
                    // ACE-prefixed (to_unicode would try to decode them).
                    l.insert(0, 'a');
                }
                l
            })
            .collect::<Vec<_>>()
            .join(".");
        cases += 1;
        let fail = |d: &str| match idna::to_ascii(d) {
            Ok(ascii) => !ascii.is_ascii() || idna::to_unicode(&ascii) != d,
            Err(_) => true,
        };
        if fail(&domain) {
            let shrunk = minimize_str(&domain, |s| fail(s));
            let detail = match idna::to_ascii(&shrunk) {
                Ok(ascii) => format!(
                    "round trip {shrunk:?} → {ascii:?} → {:?}",
                    idna::to_unicode(&ascii)
                ),
                Err(e) => format!("to_ascii failed: {e}"),
            };
            violations.push(Violation {
                oracle: "idna-roundtrip",
                input: shrunk,
                detail,
            });
        }
    }
    (cases, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    #[test]
    fn rfc3492_vectors_pass_verbatim() {
        for &(name, unicode, encoded) in RFC3492_VECTORS {
            assert_eq!(punycode::encode(unicode).unwrap(), encoded, "{name} encode");
            assert_eq!(punycode::decode(encoded).unwrap(), unicode, "{name} decode");
        }
    }

    #[test]
    fn random_oracles_are_clean_and_deterministic() {
        let mut p = Budget::Ci.params();
        p.punycode_cases = 150;
        p.idna_cases = 100;
        let (c1, v1) = run_punycode(3, &p);
        let (c2, v2) = run_punycode(3, &p);
        assert_eq!((c1, &v1), (c2, &v2));
        assert!(v1.is_empty(), "{v1:#?}");
        let (_, vi) = run_idna(3, &p);
        assert!(vi.is_empty(), "{vi:#?}");
    }
}
