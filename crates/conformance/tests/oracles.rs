//! CI entry point for the conformance harness: one full `ci`-budget run
//! must be violation-free, cover all five squatting types in the
//! differential oracle, and produce byte-identical JSON across runs.

use squatphi_conformance::{run, Budget, ConformanceConfig, RFC3492_VECTORS};
use squatphi_domain::punycode;
use squatphi_squat::SquatType;

const CONFIG: ConformanceConfig = ConformanceConfig {
    seed: 1,
    budget: Budget::Ci,
};

#[test]
fn ci_budget_run_is_violation_free() {
    let report = run(&CONFIG);
    assert_eq!(
        report.total_violations(),
        0,
        "conformance violations:\n{}",
        report.render_text(false)
    );
    assert!(
        report.total_cases() > 10_000,
        "suspiciously small run: {} cases",
        report.total_cases()
    );
    // Exactly these oracles ran, in this order, and each ran cases.
    let names: Vec<&str> = report.oracles.iter().map(|o| o.name).collect();
    assert_eq!(
        names,
        [
            "differential",
            "negative",
            "punycode-roundtrip",
            "idna-roundtrip",
            "html-fuzz",
            "supervision",
            "durability",
            "scan-diff",
            "phash-index",
        ]
    );
    for o in &report.oracles {
        assert!(o.cases > 0, "oracle {} ran zero cases", o.name);
    }
}

#[test]
fn differential_oracle_covers_all_five_types() {
    let report = run(&CONFIG);
    for (ty, n) in SquatType::ALL.iter().zip(report.type_coverage.iter()) {
        assert!(*n > 0, "type {ty} never reached the differential oracle");
    }
}

#[test]
fn report_json_is_deterministic() {
    let a = run(&CONFIG).to_json(false);
    let b = run(&CONFIG).to_json(false);
    assert_eq!(a, b, "two identical runs must serialize identically");
    // A different seed changes the run (the negative/fuzz halves are
    // seeded) but must not change the report *shape*.
    let c = run(&ConformanceConfig {
        seed: 2,
        budget: Budget::Ci,
    })
    .to_json(false);
    assert_ne!(a, c, "seed must reach the randomized oracles");
    assert_eq!(a.lines().count(), c.lines().count());
}

#[test]
fn rfc3492_sample_strings_verbatim() {
    assert_eq!(RFC3492_VECTORS.len(), 19, "all RFC 3492 §7.1 samples");
    for &(name, unicode, encoded) in RFC3492_VECTORS {
        assert_eq!(
            punycode::encode(unicode).expect("encode"),
            encoded,
            "{name}: encode mismatch"
        );
        assert_eq!(
            punycode::decode(encoded).expect("decode"),
            unicode,
            "{name}: decode mismatch"
        );
    }
}
