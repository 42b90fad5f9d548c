//! Structured-error behavior of the invariant layer: a broken identity
//! produces a `Violation` carrying the resolved value of every term, not
//! just a boolean, so an operator can see *which* side leaked and by how
//! much.

use squatphi_telemetry::invariants::durability_invariants;
use squatphi_telemetry::{Invariant, InvariantSet, Snapshot, Term, Value};

fn snap(entries: &[(&str, u64)]) -> Snapshot {
    let mut s = Snapshot::new();
    for (name, v) in entries {
        s.insert(*name, Value::U64(*v));
    }
    s
}

#[test]
fn violation_reports_every_resolved_term() {
    let inv = Invariant::sum_eq("ingest_conservation", &["accepted", "dropped"], &["events"]);
    let s = snap(&[("accepted", 90), ("dropped", 5), ("events", 100)]);
    let violation = inv.check(&s).expect_err("5 events are unaccounted for");
    assert_eq!(violation.invariant, "ingest_conservation");
    assert_eq!(violation.lhs_total, 95);
    assert_eq!(violation.rhs_total, 100);
    // Per-term resolution: name and value of each side, in order.
    assert_eq!(
        violation.lhs,
        vec![("accepted".to_string(), 90), ("dropped".to_string(), 5)]
    );
    assert_eq!(violation.rhs, vec![("events".to_string(), 100)]);
    // The Display form is a complete report, usable as an error message.
    let msg = violation.to_string();
    assert!(
        msg.contains("invariant ingest_conservation violated: 95 != 100"),
        "{msg}"
    );
    assert!(msg.contains("accepted=90 + dropped=5"), "{msg}");
    assert!(msg.contains("events=100"), "{msg}");
    // And it is a std error, so it threads through `?` chains.
    let as_error: &dyn std::error::Error = &violation;
    assert!(as_error.to_string().contains("ingest_conservation"));
}

#[test]
fn missing_metrics_resolve_to_zero_not_error() {
    let inv = Invariant::sum_eq("absent_terms", &["never_exported"], &[]);
    assert!(inv.check(&Snapshot::new()).is_ok());
}

#[test]
fn const_terms_mix_with_metrics() {
    let inv = Invariant {
        name: "floor".to_string(),
        lhs: vec![Term::Metric("x".to_string()), Term::Const(3)],
        rhs: vec![Term::Const(10)],
    };
    assert!(inv.holds(&snap(&[("x", 7)])));
    let violation = inv.check(&snap(&[("x", 8)])).unwrap_err();
    assert_eq!(violation.lhs_total, 11);
    assert!(violation.to_string().contains("const:3=3"));
}

#[test]
fn check_all_collects_every_violation() {
    let set: InvariantSet = [
        Invariant::sum_eq("holds", &["x"], &["x"]),
        Invariant::sum_eq("broken_a", &["x"], &["seven"]),
        Invariant::sum_eq("broken_b", &["x", "x"], &["three"]),
    ]
    .into_iter()
    .collect();
    let s = snap(&[("x", 1), ("seven", 7), ("three", 3)]);
    let violations = set.check_all(&s).expect_err("two identities fail");
    assert_eq!(violations.len(), 2);
    assert_eq!(violations[0].invariant, "broken_a");
    assert_eq!(violations[1].invariant, "broken_b");
    assert!(!set.all_hold(&s));
    // Fixing one identity is not enough: broken_b still fails.
    let fixed_a = snap(&[("x", 7), ("seven", 7), ("three", 3)]);
    assert_eq!(set.check_all(&fixed_a).unwrap_err().len(), 1);
}

#[test]
fn a_journal_frame_neither_applied_nor_discarded_is_caught() {
    // A resume that examined 9 frames, replayed 7 and dropped the torn
    // tail reconciles; one that lost track of a frame does not, and the
    // read-accounting identity beside it is reported independently.
    let set = durability_invariants();
    let sound = snap(&[
        ("durability.reads", 1),
        ("durability.valid", 1),
        ("durability.frames_read", 9),
        ("durability.frames_applied", 8),
        ("durability.frames_discarded", 1),
    ]);
    assert!(set.all_hold(&sound));
    let leaked = snap(&[
        ("durability.reads", 1),
        ("durability.valid", 1),
        ("durability.frames_read", 9),
        ("durability.frames_applied", 7),
        ("durability.frames_discarded", 1),
    ]);
    let violations = set
        .check_all(&leaked)
        .expect_err("one frame is unaccounted");
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].invariant, "durability.frames_accounted");
    assert_eq!((violations[0].lhs_total, violations[0].rhs_total), (9, 8));
    assert_eq!(
        violations[0].rhs,
        vec![
            ("durability.frames_applied".to_string(), 7),
            ("durability.frames_discarded".to_string(), 1)
        ]
    );
}
