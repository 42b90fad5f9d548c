//! Property tests pinning the fingerprint-indexed [`SquatDetector`]
//! byte-identical to the legacy probe-based [`LegacyDetector`] (the PR 6
//! scan rebuild's compatibility contract):
//!
//! * exhaustively on every `generate_all` candidate (with the answer also
//!   checked against the independent [`justify`] ground-truth predicates),
//! * on random labels drawn by the workspace harness `squatphi_prop`,
//!   including brand-mutation
//!   properties that concentrate on the deletion/confusable neighborhoods
//!   where the fingerprint index actually does its work,
//! * on the `probes` / `allocations_avoided` counters, which both
//!   implementations maintain at the same counting sites.
//!
//! [`SquatDetector`]: squatphi_squat::SquatDetector
//! [`LegacyDetector`]: squatphi_conformance::legacy::LegacyDetector

use squatphi_conformance::justify::justified;
use squatphi_conformance::legacy::LegacyDetector;
use squatphi_domain::confusables::ConfusableTable;
use squatphi_domain::DomainName;
use squatphi_prop::{check, prop_assert, prop_assert_eq, Gen};
use squatphi_squat::gen::{generate_all, GenBudget};
use squatphi_squat::{BrandRegistry, ClassifyStats, SquatDetector};
use std::sync::OnceLock;

const TLDS: [&str; 6] = ["com", "net", "org", "com.ua", "top", "pw"];

/// One registry + detector pair shared across all properties (building
/// the fingerprint index per generated case would swamp the runtime).
fn detectors() -> &'static (BrandRegistry, SquatDetector, LegacyDetector) {
    static CELL: OnceLock<(BrandRegistry, SquatDetector, LegacyDetector)> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = BrandRegistry::with_size(40);
        let new = SquatDetector::new(&reg);
        let old = LegacyDetector::new(&reg);
        (reg, new, old)
    })
}

/// Full agreement (answer + counters) on one domain, as a property result.
fn agreement(new: &SquatDetector, old: &LegacyDetector, domain: &DomainName) -> Result<(), String> {
    let mut sn = ClassifyStats::default();
    let mut so = ClassifyStats::default();
    let a = new.classify_with_stats(domain, &mut sn);
    let b = old.classify_with_stats(domain, &mut so);
    prop_assert_eq!(a, b, "answers diverged on {}", domain);
    prop_assert_eq!(
        sn.probes,
        so.probes,
        "probe counters diverged on {}",
        domain
    );
    prop_assert_eq!(
        sn.allocations_avoided,
        so.allocations_avoided,
        "allocation counters diverged on {}",
        domain
    );
    // The legacy detector consults a real hash map on every probe; the
    // fingerprint detector can only consult its map for a subset.
    prop_assert_eq!(so.deep_probes, so.probes, "legacy deep_probes invariant");
    prop_assert!(sn.deep_probes <= sn.probes, "filter cannot add probes");
    Ok(())
}

#[test]
fn every_generated_candidate_agrees_and_justifies() {
    let (reg, new, old) = detectors();
    let table = ConfusableTable::new();
    let budget = GenBudget {
        homograph: 30,
        bits: 20,
        typo: 30,
        combo: 30,
        wrong_tld: 8,
    };
    let mut cases = 0u64;
    for brand in reg.brands() {
        for cand in generate_all(brand, budget) {
            cases += 1;
            agreement(new, old, &cand.domain).unwrap_or_else(|e| panic!("{e}"));
            // Agreement alone could mean "identically wrong"; any hit must
            // also survive the independent ground-truth predicates.
            if let Some(m) = new.classify(&cand.domain) {
                assert!(
                    justified(reg, &table, &cand.domain, &m),
                    "unjustified agreed answer on {}",
                    cand.domain
                );
            }
        }
    }
    assert!(
        cases > 3000,
        "generator produced too few candidates: {cases}"
    );
}

#[test]
fn agrees_with_legacy_on_mixed_corpus() {
    // Misses, the paper's examples of every type, and the brand itself.
    let (_reg, new, old) = detectors();
    for s in [
        "winterpillow.net",
        "example.com",
        "random-hyphen-words.org",
        "faceb00k.pw",
        "goog1e.nl",
        "facebnok.tk",
        "facebok.tk",
        "facebo0ok.com",
        "fcaebook.org",
        "facebook-story.de",
        "facebook.audi",
        "facebook.com",
        "go-uberfreight.com",
        "live-microsoftsupport.com",
        "xn--fcebook-8va.com",
        "mail.google-app.de",
        "google.com.ua",
        "fernrnart.com",
        "a11iancebank.com",
    ] {
        let domain = DomainName::parse(s).unwrap();
        agreement(new, old, &domain).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn random_labels_agree() {
    let (_reg, new, old) = detectors();
    let gen = |g: &mut Gen| {
        let label = format!(
            "{}{}{}",
            g.char("a-z0-9"),
            g.string("a-z0-9-", 0..=20),
            g.char("a-z0-9")
        );
        (label, g.below(6) as usize)
    };
    check("random_labels_agree", 512, gen, |(label, tld_i)| {
        if let Ok(domain) = DomainName::from_parts(&label, TLDS[tld_i]) {
            agreement(new, old, &domain)?;
        }
        Ok(())
    });
}

#[test]
fn hyphenated_combos_agree() {
    let (_reg, new, old) = detectors();
    let word =
        |g: &mut squatphi_prop::Gen| format!("{}{}", g.char("a-z0-9"), g.string("a-z0-9", 0..=11));
    let gen = |g: &mut Gen| (word(g), word(g), g.below(6) as usize);
    check("hyphenated_combos_agree", 512, gen, |(a, b, tld_i)| {
        if let Ok(domain) = DomainName::from_parts(&format!("{a}-{b}"), TLDS[tld_i]) {
            agreement(new, old, &domain)?;
        }
        Ok(())
    });
}

#[test]
fn mutated_brand_labels_agree() {
    let (reg, new, old) = detectors();
    let gen = |g: &mut Gen| {
        (
            g.below(40) as usize,
            g.vec(1..4, |g| (g.below(1 << 16) as u16, g.u8())),
            g.below(6) as usize,
        )
    };
    check(
        "mutated_brand_labels_agree",
        768,
        gen,
        |(brand_i, edits, tld_i)| {
            // Mutate 1–3 positions of a brand label toward confusables,
            // random letters, deletions, insertions or adjacent swaps — the
            // edit neighborhoods the fingerprint index probes.
            let mut chars: Vec<char> = reg.brands()[brand_i % reg.len()].label.chars().collect();
            for (pos, kind) in edits {
                if chars.len() < 2 {
                    break;
                }
                let i = pos as usize % chars.len();
                match kind % 5 {
                    0 => chars[i] = ['0', '1', '5', 'q', 'v', 'w'][kind as usize % 6],
                    1 => chars[i] = (b'a' + kind % 26) as char,
                    2 => {
                        chars.remove(i);
                    }
                    3 => chars.insert(i, (b'a' + kind % 26) as char),
                    _ => {
                        if i + 1 < chars.len() {
                            chars.swap(i, i + 1);
                        }
                    }
                }
            }
            let label: String = chars.into_iter().collect();
            if let Ok(domain) = DomainName::from_parts(&label, TLDS[tld_i]) {
                agreement(new, old, &domain)?;
            }
            Ok(())
        },
    );
}
