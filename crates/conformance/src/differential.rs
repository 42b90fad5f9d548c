//! The generator↔detector differential oracle.
//!
//! Positive half: every candidate the forward generators emit for every
//! brand in the registry is indexed by [`PregeneratedDetector`] and then
//! streamed through the probing [`SquatDetector`]. The detector must hit,
//! and when its `(brand, type)` differs from the table's, the answer must
//! survive the independent [`justify`] predicates.
//!
//! Negative half: seeded random domains — overwhelmingly non-squatting —
//! go through both detectors; any hit must be justifiable and a
//! table-only hit (pregenerated yes, probing no) is a miss.
//!
//! [`PregeneratedDetector`]: squatphi_squat::pregen::PregeneratedDetector
//! [`SquatDetector`]: squatphi_squat::SquatDetector

use crate::justify::{justified, type_index};
use crate::report::Violation;
use crate::Params;
use rand::prelude::*;
use squatphi_domain::confusables::ConfusableTable;
use squatphi_domain::DomainName;
use squatphi_prop::shrink::minimize_str;
use squatphi_squat::gen::generate_all;
use squatphi_squat::pregen::PregeneratedDetector;
use squatphi_squat::{BrandRegistry, SquatDetector};

fn registry(params: &Params) -> BrandRegistry {
    match params.registry_size {
        Some(n) => BrandRegistry::with_size(n),
        None => BrandRegistry::paper(),
    }
}

/// Streams every generated candidate through both strategies.
pub(crate) fn run_positive(params: &Params, coverage: &mut [u64; 5]) -> (u64, Vec<Violation>) {
    let reg = registry(params);
    let table = ConfusableTable::new();
    let detector = SquatDetector::new(&reg);
    let pregen = PregeneratedDetector::build(&reg, params.gen);
    let mut cases = 0u64;
    let mut violations = Vec::new();

    for brand in reg.brands() {
        for cand in generate_all(brand, params.gen) {
            // Candidates colliding with some brand's own registrable
            // domain are indexed by neither strategy.
            let Some(expected) = pregen.classify(&cand.domain) else {
                continue;
            };
            cases += 1;
            coverage[type_index(cand.squat_type)] += 1;
            match detector.classify(&cand.domain) {
                Some(got)
                    if (got.brand == expected.brand && got.squat_type == expected.squat_type)
                        || justified(&reg, &table, &cand.domain, &got) => {}
                Some(got) => {
                    let got_brand = reg
                        .get(got.brand)
                        .map(|b| b.label.as_str())
                        .unwrap_or("<invalid>");
                    violations.push(disagreement(
                        &reg,
                        &table,
                        &detector,
                        cand.domain.as_str(),
                        format!(
                            "unjustified answer ({got_brand}, {}); table says ({}, {})",
                            got.squat_type,
                            reg.get(expected.brand)
                                .map(|b| b.label.as_str())
                                .unwrap_or("?"),
                            expected.squat_type,
                        ),
                    ));
                }
                None => {
                    violations.push(disagreement(
                        &reg,
                        &table,
                        &detector,
                        cand.domain.as_str(),
                        format!(
                            "detector missed a generated ({}, {}) candidate",
                            reg.get(expected.brand)
                                .map(|b| b.label.as_str())
                                .unwrap_or("?"),
                            expected.squat_type,
                        ),
                    ));
                }
            }
        }
    }
    (cases, violations)
}

/// Seeded random domains through both detectors: hits must be justified.
pub(crate) fn run_negative(seed: u64, params: &Params) -> (u64, Vec<Violation>) {
    let reg = registry(params);
    let table = ConfusableTable::new();
    let detector = SquatDetector::new(&reg);
    let pregen = PregeneratedDetector::build(&reg, params.gen);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_6761_7469_7665); // "negative"
    let tlds = ["com", "net", "org", "com.ua", "top", "pw"];
    let mut cases = 0u64;
    let mut violations = Vec::new();

    for _ in 0..params.negatives {
        let len = rng.gen_range(6..=14usize);
        let label: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
            .collect();
        let tld = tlds[rng.gen_range(0..tlds.len())];
        let Ok(domain) = DomainName::from_parts(&label, tld) else {
            continue;
        };
        cases += 1;
        let table_hit = pregen.classify(&domain);
        match detector.classify(&domain) {
            Some(got) if justified(&reg, &table, &domain, &got) => {}
            Some(got) => {
                violations.push(disagreement(
                    &reg,
                    &table,
                    &detector,
                    domain.as_str(),
                    format!(
                        "random domain claimed as ({}, {}) without justification",
                        reg.get(got.brand).map(|b| b.label.as_str()).unwrap_or("?"),
                        got.squat_type,
                    ),
                ));
            }
            None => {
                if let Some(expected) = table_hit {
                    violations.push(disagreement(
                        &reg,
                        &table,
                        &detector,
                        domain.as_str(),
                        format!(
                            "pregenerated table hit ({}, {}) but detector missed",
                            reg.get(expected.brand)
                                .map(|b| b.label.as_str())
                                .unwrap_or("?"),
                            expected.squat_type,
                        ),
                    ));
                }
            }
        }
    }
    (cases, violations)
}

/// Builds a violation, shrinking the domain to the smallest string on
/// which the detector still answers un-justifiably (or misses a domain
/// that still parses and justifies against some brand).
fn disagreement(
    reg: &BrandRegistry,
    table: &ConfusableTable,
    detector: &SquatDetector,
    domain: &str,
    detail: String,
) -> Violation {
    let shrunk = minimize_str(domain, |s| {
        let Ok(d) = DomainName::parse(s) else {
            return false;
        };
        match detector.classify(&d) {
            Some(m) => !justified(reg, table, &d, &m),
            // A miss only still "fails" if the shrunk domain remains a
            // plausible squat by *some* ground-truth reading; a random
            // non-matching string is not a counterexample.
            None => reg.brands().iter().any(|b| {
                use squatphi_squat::detect::SquatMatch;
                use squatphi_squat::SquatType;
                SquatType::ALL.iter().any(|&ty| {
                    justified(
                        reg,
                        table,
                        &d,
                        &SquatMatch {
                            brand: b.id,
                            squat_type: ty,
                        },
                    )
                })
            }),
        }
    });
    Violation {
        oracle: "differential",
        input: shrunk,
        detail,
    }
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
        p.negatives = 120;
        p
    }

    #[test]
    fn positive_oracle_is_clean_and_covers_every_type() {
        let mut coverage = [0u64; 5];
        let (cases, violations) = run_positive(&tiny_params(), &mut coverage);
        assert!(cases > 500, "too few cases: {cases}");
        assert!(violations.is_empty(), "violations: {violations:#?}");
        for (i, n) in coverage.iter().enumerate() {
            assert!(*n > 0, "type {i} not covered");
        }
    }

    #[test]
    fn negative_oracle_is_clean_and_deterministic() {
        let p = tiny_params();
        let (cases_a, va) = run_negative(9, &p);
        let (cases_b, vb) = run_negative(9, &p);
        assert_eq!(cases_a, cases_b);
        assert_eq!(va, vb);
        assert!(va.is_empty(), "violations: {va:#?}");
        assert!(cases_a > 0);
    }
}
