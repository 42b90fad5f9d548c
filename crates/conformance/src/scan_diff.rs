//! The legacy↔fingerprint matcher differential oracle (`scan-diff`).
//!
//! The PR 6 scan rebuild replaced the string-probing detector with a
//! fingerprint-indexed one and the contiguous-chunk scheduler with an
//! atomic-cursor block scheduler. Both carry a hard compatibility
//! contract: **byte-identical answers**. This oracle pins it from three
//! directions:
//!
//! 1. **Candidate agreement** — every candidate the forward generators
//!    emit for every brand goes through [`LegacyDetector`] and
//!    [`SquatDetector`]; the match (brand *and* type) must be equal, and
//!    so must the `probes` / `allocations_avoided` counters, which are
//!    maintained at the same counting sites by construction.
//! 2. **Negative agreement** — seeded random domains (overwhelmingly
//!    non-squatting, occasionally mutated toward brand labels so some
//!    hits occur) through both; same equality.
//! 3. **Snapshot agreement** — a synthetic snapshot is scanned with the
//!    production multi-threaded engine and re-classified by a sequential
//!    legacy reference loop; `matches`, `by_type` and `by_brand` must be
//!    byte-identical, which additionally pins the scheduler's
//!    first-record-wins merge order.
//!
//! [`LegacyDetector`]: squatphi_squat::legacy::LegacyDetector
//! [`SquatDetector`]: squatphi_squat::SquatDetector

use crate::report::Violation;
use crate::shrink::minimize_str;
use crate::Params;
use rand::prelude::*;
use squatphi_dnsdb::{scan, synth, SnapshotConfig};
use squatphi_domain::DomainName;
use squatphi_squat::gen::generate_all;
use squatphi_squat::legacy::LegacyDetector;
use squatphi_squat::{BrandRegistry, ClassifyStats, SquatDetector};

fn registry(params: &Params) -> BrandRegistry {
    match params.registry_size {
        Some(n) => BrandRegistry::with_size(n),
        None => BrandRegistry::paper(),
    }
}

/// `Some((detail, minimizable))` when the two detectors disagree on a
/// domain. Counter divergence is reported but not shrunk (a shrunk label
/// changes the probe count trivially, so minimizing is meaningless).
fn disagree(new: &SquatDetector, old: &LegacyDetector, d: &DomainName) -> Option<(String, bool)> {
    let mut sn = ClassifyStats::default();
    let mut so = ClassifyStats::default();
    let a = new.classify_with_stats(d, &mut sn);
    let b = old.classify_with_stats(d, &mut so);
    if a != b {
        return Some((
            format!(
                "fingerprint answered {:?}, legacy answered {:?}",
                a.map(|m| (m.brand, m.squat_type)),
                b.map(|m| (m.brand, m.squat_type)),
            ),
            true,
        ));
    }
    if sn.probes != so.probes || sn.allocations_avoided != so.allocations_avoided {
        return Some((
            format!(
                "counters diverged: probes {} vs {}, allocations_avoided {} vs {}",
                sn.probes, so.probes, sn.allocations_avoided, so.allocations_avoided,
            ),
            false,
        ));
    }
    None
}

fn violation(
    new: &SquatDetector,
    old: &LegacyDetector,
    domain: &str,
    detail: String,
    minimizable: bool,
) -> Violation {
    let input = if minimizable {
        minimize_str(domain, |s| {
            DomainName::parse(s)
                .map(|d| {
                    let mut sn = ClassifyStats::default();
                    let mut so = ClassifyStats::default();
                    new.classify_with_stats(&d, &mut sn) != old.classify_with_stats(&d, &mut so)
                })
                .unwrap_or(false)
        })
    } else {
        domain.to_string()
    };
    Violation {
        oracle: "scan-diff",
        input,
        detail,
    }
}

/// Runs all three scan-diff halves (candidates, negatives, snapshot).
pub(crate) fn run_scan_diff(seed: u64, params: &Params) -> (u64, Vec<Violation>) {
    let reg = registry(params);
    let new = SquatDetector::new(&reg);
    let old = LegacyDetector::new(&reg);
    let mut cases = 0u64;
    let mut violations = Vec::new();

    // 1. Every generated candidate.
    for brand in reg.brands() {
        for cand in generate_all(brand, params.gen) {
            cases += 1;
            if let Some((detail, min)) = disagree(&new, &old, &cand.domain) {
                violations.push(violation(&new, &old, cand.domain.as_str(), detail, min));
            }
        }
    }

    // 2. Seeded negatives, some nudged toward brand labels so this half
    //    also exercises near-miss probe paths (deletion neighborhoods,
    //    confusable folds) rather than pure misses.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7363_616e_2d64_6966); // "scan-dif"
    let tlds = ["com", "net", "org", "com.ua", "top", "pw"];
    let confusable = ['0', '1', '5', 'q', 'v', '-'];
    for _ in 0..params.scan_diff_negatives {
        let label: String = if rng.gen_bool(0.5) {
            let len = rng.gen_range(4..=16usize);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect()
        } else {
            // Start from a brand label and mutate 1-2 positions.
            let b = &reg.brands()[rng.gen_range(0..reg.len())];
            let mut chars: Vec<char> = b.label.chars().collect();
            for _ in 0..rng.gen_range(1..=2usize) {
                let i = rng.gen_range(0..chars.len());
                chars[i] = if rng.gen_bool(0.5) {
                    confusable[rng.gen_range(0..confusable.len())]
                } else {
                    (b'a' + rng.gen_range(0..26u8)) as char
                };
            }
            chars.into_iter().collect()
        };
        let tld = tlds[rng.gen_range(0..tlds.len())];
        let Ok(domain) = DomainName::from_parts(&label, tld) else {
            continue;
        };
        cases += 1;
        if let Some((detail, min)) = disagree(&new, &old, &domain) {
            violations.push(violation(&new, &old, domain.as_str(), detail, min));
        }
    }

    // 3. Snapshot-level: production engine vs sequential legacy reference.
    let (store, _) = synth::generate(&SnapshotConfig::tiny(), &reg);
    let engine = scan(&store, &reg, &new, 4);
    let reference = legacy_reference_scan(&store, &reg, &old);
    cases += store.len() as u64;
    if engine.matches != reference.matches
        || engine.by_type != reference.by_type
        || engine.by_brand != reference.by_brand
        || engine.scanned != reference.scanned
        || engine.invalid != reference.invalid
    {
        violations.push(Violation {
            oracle: "scan-diff",
            input: format!("synthetic snapshot ({} records)", store.len()),
            detail: format!(
                "engine vs legacy reference: matches {} vs {}, by_type {:?} vs {:?}, scanned {} vs {}, invalid {} vs {}",
                engine.matches.len(),
                reference.matches.len(),
                engine.by_type,
                reference.by_type,
                engine.scanned,
                reference.scanned,
                engine.invalid,
                reference.invalid,
            ),
        });
    }

    (cases, violations)
}

/// What the scan must reproduce: a single-threaded walk of the store in
/// record order with the legacy detector and first-record-wins dedupe.
struct ReferenceOutcome {
    matches: Vec<squatphi_dnsdb::SquatRecord>,
    by_type: [usize; 5],
    by_brand: Vec<usize>,
    scanned: usize,
    invalid: usize,
}

fn legacy_reference_scan(
    store: &squatphi_dnsdb::RecordStore,
    reg: &BrandRegistry,
    old: &LegacyDetector,
) -> ReferenceOutcome {
    let mut out = ReferenceOutcome {
        matches: Vec::new(),
        by_type: [0; 5],
        by_brand: vec![0; reg.len()],
        scanned: 0,
        invalid: 0,
    };
    let mut seen = std::collections::HashSet::new();
    for (name, ip) in store.iter() {
        out.scanned += 1;
        let Ok(domain) = DomainName::parse(name) else {
            out.invalid += 1;
            continue;
        };
        if let Some(m) = old.classify(&domain) {
            if seen.insert(domain.registrable()) {
                out.by_type[crate::justify::type_index(m.squat_type)] += 1;
                out.by_brand[m.brand] += 1;
                out.matches.push(squatphi_dnsdb::SquatRecord {
                    domain,
                    ip,
                    brand: m.brand,
                    squat_type: m.squat_type,
                });
            }
        }
    }
    debug_assert_eq!(
        out.by_type.iter().sum::<usize>(),
        out.matches.len(),
        "reference bookkeeping"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    fn tiny_params() -> Params {
        let mut p = Budget::Ci.params();
        p.registry_size = Some(20);
        p.gen = squatphi_squat::GenBudget {
            homograph: 10,
            bits: 8,
            typo: 10,
            combo: 12,
            wrong_tld: 4,
        };
        p.scan_diff_negatives = 200;
        p
    }

    #[test]
    fn scan_diff_is_clean_and_deterministic() {
        let p = tiny_params();
        let (cases_a, va) = run_scan_diff(7, &p);
        let (cases_b, vb) = run_scan_diff(7, &p);
        assert_eq!(cases_a, cases_b);
        assert_eq!(va, vb);
        assert!(va.is_empty(), "violations: {va:#?}");
        assert!(cases_a > 500, "too few cases: {cases_a}");
    }
}
