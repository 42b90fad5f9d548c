//! The workspace's conservation identities, in one audited place.
//!
//! Each pipeline surface exports its counters into a canonical registry
//! scope (`scan.`, `analysis.`, `supervision.`, `watch.`, `crawl.`); the
//! sets below name the identities those scopes must satisfy. The legacy
//! `reconciles()` methods on the view structs delegate here, so adding or
//! auditing an identity is an edit to this file, not a hunt across 15
//! call sites.

use crate::invariant::{Invariant, InvariantSet};

/// Scan-stage identities (`scan.` scope, exported by
/// `dnsdb::{ScanOutcome, ScanMetrics}`):
///
/// * every surviving match is counted in exactly one type bucket,
/// * every surviving match is counted in exactly one brand bucket
///   (`scan.by_brand_total` is the pre-summed brand histogram),
/// * and the blocks' own `scan.scanned` counts add up to
///   `scan.exec.records`, the summed block lengths of the cut.
///
/// `scan.invalid` has no second count to check it against, so it has
/// no identity here.
pub fn scan_invariants() -> InvariantSet {
    InvariantSet::new()
        .with(Invariant::sum_eq(
            "scan.matches_by_type",
            &["scan.matches"],
            &[
                "scan.by_type.homograph",
                "scan.by_type.bits",
                "scan.by_type.typo",
                "scan.by_type.combo",
                "scan.by_type.wrong_tld",
            ],
        ))
        .with(Invariant::sum_eq(
            "scan.matches_by_brand",
            &["scan.matches"],
            &["scan.by_brand_total"],
        ))
        .with(Invariant::sum_eq(
            "scan.records_accounted",
            &["scan.scanned"],
            &["scan.exec.records"],
        ))
}

/// Page-analysis identities (`analysis.` scope, exported by
/// `squatphi::AnalysisSnapshot`): every page is a cache hit or a miss.
pub fn analysis_invariants() -> InvariantSet {
    InvariantSet::new().with(Invariant::sum_eq(
        "analysis.cache_conservation",
        &["analysis.pages"],
        &["analysis.cache_hits", "analysis.cache_misses"],
    ))
}

/// Supervision identities (`supervision.` scope, exported by
/// `squatphi::SupervisionReport`): every injected fault lands exactly once
/// as quarantined, recovered, degraded or truncated.
pub fn supervision_invariants() -> InvariantSet {
    InvariantSet::new()
        .with(Invariant::sum_eq(
            "supervision.panics_accounted",
            &["supervision.injected.analyzer_panics"],
            &["supervision.quarantined_injected", "supervision.recovered"],
        ))
        .with(Invariant::sum_eq(
            "supervision.poisons_accounted",
            &["supervision.degraded"],
            &[
                "supervision.injected.poisoned_pages",
                "supervision.degraded_natural",
            ],
        ))
        .with(Invariant::sum_eq(
            "supervision.truncations_accounted",
            &["supervision.injected.truncated_records"],
            &["supervision.truncated"],
        ))
}

/// Crawl identities (`crawl.` scope, exported by
/// `crawler::CrawlStats`): every live fetch has exactly one redirect class.
pub fn crawl_invariants() -> InvariantSet {
    InvariantSet::new()
        .with(Invariant::sum_eq(
            "crawl.web_redirect_split",
            &["crawl.web_live"],
            &[
                "crawl.web_no_redirect",
                "crawl.web_redirect_original",
                "crawl.web_redirect_market",
                "crawl.web_redirect_other",
            ],
        ))
        .with(Invariant::sum_eq(
            "crawl.mobile_redirect_split",
            &["crawl.mobile_live"],
            &[
                "crawl.mobile_no_redirect",
                "crawl.mobile_redirect_original",
                "crawl.mobile_redirect_market",
                "crawl.mobile_redirect_other",
            ],
        ))
}

/// Watch-daemon identities (`watch.counters.` and `watch.queues.` scopes,
/// exported by `squatphi::WatchSummary`): the five queue-conservation
/// identities the streaming stage has always guaranteed.
pub fn watch_invariants() -> InvariantSet {
    InvariantSet::new()
        .with(Invariant::sum_eq(
            "watch.ingest_conservation",
            &["watch.counters.injected"],
            &[
                "watch.counters.accepted",
                "watch.counters.dropped_registrations",
                "watch.counters.dropped_churn",
                "watch.counters.dropped_feed",
            ],
        ))
        .with(Invariant::sum_eq(
            "watch.detect_conservation",
            &["watch.counters.accepted"],
            &["watch.counters.processed", "watch.queues.ingest_depth"],
        ))
        .with(Invariant::sum_eq(
            "watch.processed_by_kind",
            &["watch.counters.processed"],
            &[
                "watch.counters.registrations",
                "watch.counters.churn_hits",
                "watch.counters.churn_misses",
                "watch.counters.feed_hits",
                "watch.counters.feed_misses",
            ],
        ))
        .with(Invariant::sum_eq(
            "watch.candidate_conservation",
            &["watch.counters.detected"],
            &[
                "watch.counters.first_crawls",
                "watch.counters.purged_candidates",
                "watch.counters.duplicate_candidates",
                "watch.queues.candidate_depth",
            ],
        ))
        .with(Invariant::sum_eq(
            "watch.crawl_jobs_split",
            &["watch.counters.crawl_jobs"],
            &["watch.counters.first_crawls", "watch.counters.recrawls"],
        ))
}

/// Visual-similarity index identities (`phash.index.` scope, exported by
/// `imghash::index::HashIndex`): every candidate the index examines is
/// either verified (within the radius) or pruned — the probe ledger leaks
/// nothing, on the multi-index path and the BK-tree fallback alike.
pub fn phash_index_invariants() -> InvariantSet {
    InvariantSet::new().with(Invariant::sum_eq(
        "phash.index.probe_conservation",
        &["phash.index.probes"],
        &["phash.index.verified", "phash.index.pruned"],
    ))
}

/// Durable-state identities (`durability.` scope, exported by
/// `squatphi_durability::DurabilityStats`): every checkpoint read
/// resolves to exactly one outcome — served by the newest generation,
/// recovered from an older one, recomputed (cold start or stale
/// config), or reported unrecoverable. A read that fell through the
/// classifier without being accounted is exactly the "silent corruption
/// fallback" failure mode this scope exists to rule out. Likewise every
/// journal frame a load examined was either replayed or discarded
/// (torn, corrupt, or after one that was) — never silently skipped.
pub fn durability_invariants() -> InvariantSet {
    InvariantSet::new()
        .with(Invariant::sum_eq(
            "durability.reads_accounted",
            &["durability.reads"],
            &[
                "durability.valid",
                "durability.recovered",
                "durability.recomputed",
                "durability.unrecoverable",
            ],
        ))
        .with(Invariant::sum_eq(
            "durability.frames_accounted",
            &["durability.frames_read"],
            &["durability.frames_applied", "durability.frames_discarded"],
        ))
}

/// Every identity the batch pipeline must satisfy end-to-end — what
/// `PipelineResult::check_invariants` runs.
pub fn pipeline_invariants() -> InvariantSet {
    scan_invariants()
        .iter()
        .chain(analysis_invariants().iter())
        .chain(supervision_invariants().iter())
        .chain(crawl_invariants().iter())
        .chain(phash_index_invariants().iter())
        .chain(durability_invariants().iter())
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, Value};

    #[test]
    fn sets_are_nonempty_and_named_by_scope() {
        for (set, scope) in [
            (scan_invariants(), "scan."),
            (analysis_invariants(), "analysis."),
            (supervision_invariants(), "supervision."),
            (crawl_invariants(), "crawl."),
            (watch_invariants(), "watch."),
            (phash_index_invariants(), "phash.index."),
            (durability_invariants(), "durability."),
        ] {
            assert!(!set.is_empty());
            for inv in set.iter() {
                assert!(inv.name.starts_with(scope), "{}", inv.name);
            }
        }
        assert_eq!(
            pipeline_invariants().len(),
            scan_invariants().len()
                + analysis_invariants().len()
                + supervision_invariants().len()
                + crawl_invariants().len()
                + phash_index_invariants().len()
                + durability_invariants().len()
        );
    }

    #[test]
    fn unaccounted_durability_read_is_caught() {
        let mut snap = Snapshot::new();
        snap.insert("durability.reads", Value::U64(3));
        snap.insert("durability.valid", Value::U64(1));
        snap.insert("durability.recovered", Value::U64(1));
        // One read neither valid, recovered, recomputed nor unrecoverable.
        let violations = durability_invariants().check_all(&snap).unwrap_err();
        assert_eq!(violations[0].invariant, "durability.reads_accounted");
    }

    #[test]
    fn empty_snapshot_trivially_reconciles() {
        // All identities are sums of zeros over an empty registry.
        let snap = Snapshot::new();
        assert!(pipeline_invariants().all_hold(&snap));
        assert!(watch_invariants().all_hold(&snap));
    }

    #[test]
    fn leaked_index_probe_is_caught() {
        let mut snap = Snapshot::new();
        snap.insert("phash.index.probes", Value::U64(10));
        snap.insert("phash.index.verified", Value::U64(6));
        snap.insert("phash.index.pruned", Value::U64(3));
        // One probe neither verified nor pruned.
        let violations = phash_index_invariants().check_all(&snap).unwrap_err();
        assert_eq!(violations[0].invariant, "phash.index.probe_conservation");
    }

    #[test]
    fn leaked_watch_event_is_caught() {
        let mut snap = Snapshot::new();
        snap.insert("watch.counters.injected", Value::U64(5));
        snap.insert("watch.counters.accepted", Value::U64(4));
        // One injected event neither accepted nor dropped.
        let violations = watch_invariants().check_all(&snap).unwrap_err();
        assert_eq!(violations[0].invariant, "watch.ingest_conservation");
    }
}
