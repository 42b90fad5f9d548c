//! Inputs are a function of the seed alone: the same seed gives the same
//! input digest, another seed another.

use squatphi_sysbench::workloads::{
    haystack_scan::HaystackScan, page_audit::PageAudit, repro_batch::ReproBatch,
    visual_lookup::VisualLookup, watch_durable::WatchDurable, watch_stream::WatchStream, Scale,
    Workload,
};

fn digests<W: Workload>() -> (u64, u64, u64) {
    let of = |seed| W::setup(seed, Scale::Smoke).input_digest();
    (of(2018), of(2018), of(7))
}

fn assert_seeded<W: Workload>() {
    let (a, again, other) = digests::<W>();
    assert_eq!(a, again, "{}: same seed, different input", W::NAME);
    assert_ne!(a, other, "{}: different seed, same input", W::NAME);
}

#[test]
fn repro_batch_input_is_seeded() {
    assert_seeded::<ReproBatch>();
}

#[test]
fn haystack_scan_input_is_seeded() {
    assert_seeded::<HaystackScan>();
}

#[test]
fn page_audit_input_is_seeded() {
    assert_seeded::<PageAudit>();
}

#[test]
fn visual_lookup_input_is_seeded() {
    assert_seeded::<VisualLookup>();
}

#[test]
fn watch_inputs_are_seeded() {
    assert_seeded::<WatchStream>();
    assert_seeded::<WatchDurable>();
}
