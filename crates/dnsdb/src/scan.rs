//! Multi-threaded squatting scan over the record store (Figure 2 path).
//!
//! # Scheduling
//!
//! The store is cut into small **blocks** and fanned out over
//! [`squatphi_telemetry::par_map`] one block at a time (grain 1), so a run
//! of expensive records on one thread never stalls the others and the
//! work stays balanced regardless of how matches cluster in the snapshot.
//! The block size adapts to the input: at least four blocks per requested
//! worker (so tiny stores still fan out — the old `div_ceil` chunking
//! spawned 5 workers for 9 records × 8 threads), capped at `MAX_BLOCK`
//! records so huge stores rebalance often.
//!
//! # Determinism
//!
//! Results are merged **in block order**, which is store order, so the
//! first-record-wins dedupe produces byte-identical `matches`, `by_type`
//! and `by_brand` for every thread count (see
//! `scan_is_deterministic_across_thread_counts`). The counters in
//! [`ScanMetrics`] are sums over blocks, so they are thread-count
//! invariant too; only `requested_workers`, `blocks` and `wall` describe
//! the run rather than the store.
//!
//! # Failure
//!
//! Each block runs under `catch_unwind`. Once a block has failed, blocks
//! after it return without classifying anything, and
//! [`try_scan_with_metrics`] returns a structured [`ScanError`] naming the
//! first failing block, so the supervision layer can surface it as a
//! `StagePanic` and retry or checkpoint around it.

use crate::store::RecordStore;
use squatphi_domain::DomainName;
use squatphi_squat::{BrandId, BrandRegistry, ClassifyStats, SquatDetector, SquatMatch, SquatType};
use squatphi_telemetry::par_map;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on records per scheduler block. Small enough that even a
/// snapshot-sized store produces hundreds of blocks to balance, large
/// enough that the per-block bookkeeping (one cursor claim, one `Vec`
/// push) is noise against classifying the records.
const MAX_BLOCK: usize = 8192;

/// One detected squatting record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquatRecord {
    /// The squatting domain (validated, registrable-label aware).
    pub domain: DomainName,
    /// The raw record's IP.
    pub ip: Ipv4Addr,
    /// The impersonated brand.
    pub brand: BrandId,
    /// The detected squatting type.
    pub squat_type: SquatType,
}

/// Aggregate result of a snapshot scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Every unique registrable squatting domain found.
    pub matches: Vec<SquatRecord>,
    /// Counts per type, paper order (homograph, bits, typo, combo, wrongTLD).
    pub by_type: [usize; 5],
    /// Counts per brand id.
    pub by_brand: Vec<usize>,
    /// Records scanned.
    pub scanned: usize,
    /// Records that failed domain validation (skipped).
    pub invalid: usize,
}

/// Telemetry leaf names for [`ScanOutcome::by_type`], paper order.
const TYPE_NAMES: [&str; 5] = ["homograph", "bits", "typo", "combo", "wrong_tld"];

impl ScanOutcome {
    /// Total squatting domains found.
    pub fn total_matches(&self) -> usize {
        self.matches.len()
    }

    /// Count for one squatting type.
    pub fn count(&self, ty: SquatType) -> usize {
        self.by_type[type_index(ty)]
    }

    /// Publishes the outcome into a telemetry scope (canonically `scan`).
    /// Everything exported here is deterministic and thread-count
    /// invariant; execution-shape data lives in [`ScanMetrics::export`]'s
    /// `exec.` subscope.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        scope.set_u64("scanned", self.scanned as u64);
        scope.set_u64("invalid", self.invalid as u64);
        scope.set_u64("matches", self.matches.len() as u64);
        let by_type = scope.scope("by_type");
        for (name, count) in TYPE_NAMES.iter().zip(self.by_type.iter()) {
            by_type.set_u64(name, *count as u64);
        }
        scope.set_u64(
            "by_brand_total",
            self.by_brand.iter().map(|c| *c as u64).sum(),
        );
    }
}

/// A scan block panicked. The scan is abandoned (blocks after the failing
/// one are skipped) and no partial outcome is exposed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// Index of the scheduler block (shard) whose records were being
    /// classified when the panic fired; the first failing block in store
    /// order when several fail, at every thread count.
    pub shard: usize,
    /// The panic payload, stringified.
    pub cause: String,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scan worker panicked on shard {}: {}",
            self.shard, self.cause
        )
    }
}

impl std::error::Error for ScanError {}

/// Instrumentation for one [`scan`] call: the classify counters summed
/// over every block, the merge-phase dedupe statistics and the end-to-end
/// wall clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Records in the cut's blocks (valid or not): the summed block
    /// lengths, counted apart from the blocks' own `scanned`.
    pub records: usize,
    /// Records that failed domain validation (the outcome's `invalid`).
    pub invalid: usize,
    /// Scheduler blocks the store was cut into.
    pub blocks: usize,
    /// Detector probe and allocation counters, summed over blocks.
    pub classify: ClassifyStats,
    /// Worker threads the caller asked for.
    pub requested_workers: usize,
    /// Matches dropped at merge because an earlier block already claimed
    /// the registrable domain (first-record-wins dedupe).
    pub dedupe_collisions: usize,
    /// Wall-clock time of the whole scan, including the merge.
    pub wall: Duration,
}

impl ScanMetrics {
    /// Total records classified.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Total invalid records.
    pub fn invalid(&self) -> usize {
        self.invalid
    }

    /// Total detector probes (fingerprint tests; each corresponds to one
    /// legacy hash probe).
    pub fn probes(&self) -> u64 {
        self.classify.probes
    }

    /// Total probes that got past the fingerprint filter.
    pub fn deep_probes(&self) -> u64 {
        self.classify.deep_probes
    }

    /// Total heap allocations the detector's stack buffers avoided.
    pub fn allocations_avoided(&self) -> u64 {
        self.classify.allocations_avoided
    }

    /// End-to-end throughput (records per wall-clock second, all workers).
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.records as f64 / secs
        } else {
            0.0
        }
    }

    /// Publishes the instrumentation into the same scope as
    /// [`ScanOutcome::export`]. Merge statistics land at the top level;
    /// the block-summed counters and the run's shape (requested workers,
    /// block count) go under `exec.` so invariance tests can drop them,
    /// and wall-clock values use timing-rule names so default output
    /// strips them. `exec.records` must reconcile with the outcome's
    /// `scanned`.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        scope.set_u64("dedupe_collisions", self.dedupe_collisions as u64);
        scope.set_u64(
            "wall_nanos",
            u64::try_from(self.wall.as_nanos()).unwrap_or(u64::MAX),
        );
        scope.set_f64("records_per_sec", self.records_per_sec());
        let exec = scope.scope("exec");
        exec.set_u64("requested_workers", self.requested_workers as u64);
        exec.set_u64("records", self.records as u64);
        exec.set_u64("invalid", self.invalid as u64);
        exec.set_u64("blocks", self.blocks as u64);
        self.classify.export(&exec);
    }

    /// Whether the scan's conservation identities hold for an exported
    /// snapshot — the declarative replacement for the ad-hoc assertions
    /// that used to live in every consumer.
    pub fn reconciles(outcome: &ScanOutcome, metrics: &ScanMetrics) -> bool {
        let reg = squatphi_telemetry::Registry::new();
        let scope = reg.scope("scan");
        outcome.export(&scope);
        metrics.export(&scope);
        squatphi_telemetry::invariants::scan_invariants().all_hold(&reg.snapshot())
    }
}

/// Paper-order index of a type.
pub(crate) fn type_index(ty: SquatType) -> usize {
    match ty {
        SquatType::Homograph => 0,
        SquatType::Bits => 1,
        SquatType::Typo => 2,
        SquatType::Combo => 3,
        SquatType::WrongTld => 4,
    }
}

/// The classification interface the scheduler drives. Sealed to the
/// crate: production always uses [`SquatDetector`]; tests inject failing
/// classifiers to exercise the panic path.
pub(crate) trait Classify: Sync {
    /// Classify one parsed domain, accumulating stats.
    fn classify_record(&self, domain: &DomainName, stats: &mut ClassifyStats)
        -> Option<SquatMatch>;
}

impl Classify for SquatDetector {
    fn classify_record(
        &self,
        domain: &DomainName,
        stats: &mut ClassifyStats,
    ) -> Option<SquatMatch> {
        self.classify_with_stats(domain, stats)
    }
}

/// Scans the snapshot with `threads` worker threads (1 = sequential).
/// Matches are deduplicated on the registrable domain: `www.goofle.com.ua`
/// and `goofle.com.ua` count once, per the paper's handling of subdomains.
///
/// # Panics
/// Re-raises a worker panic as its own; use [`try_scan_with_metrics`] to
/// handle worker failure structurally.
pub fn scan(
    store: &RecordStore,
    registry: &BrandRegistry,
    detector: &SquatDetector,
    threads: usize,
) -> ScanOutcome {
    scan_with_metrics(store, registry, detector, threads).0
}

/// [`scan`], additionally returning the block-summed and merge
/// instrumentation.
///
/// # Panics
/// Re-raises a worker panic (with its shard attached); callers that must
/// survive it — the supervised pipeline — use [`try_scan_with_metrics`].
pub fn scan_with_metrics(
    store: &RecordStore,
    registry: &BrandRegistry,
    detector: &SquatDetector,
    threads: usize,
) -> (ScanOutcome, ScanMetrics) {
    match try_scan_with_metrics(store, registry, detector, threads) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// [`scan_with_metrics`] with structured failure reporting: a panicking
/// block yields `Err(ScanError)` naming the first failing shard instead of
/// poisoning the whole process.
pub fn try_scan_with_metrics(
    store: &RecordStore,
    registry: &BrandRegistry,
    detector: &SquatDetector,
    threads: usize,
) -> Result<(ScanOutcome, ScanMetrics), ScanError> {
    try_scan_impl(store, registry.len(), detector, threads)
}

/// What one scheduler block contributes. Per-type / per-brand counters
/// are derived at merge time from the dedupe-surviving matches, so blocks
/// only carry what the merge actually consumes.
#[derive(Debug, Default)]
struct BlockPartial {
    matches: Vec<SquatRecord>,
    scanned: usize,
    invalid: usize,
}

fn try_scan_impl<C: Classify>(
    store: &RecordStore,
    brand_count: usize,
    classifier: &C,
    threads: usize,
) -> Result<(ScanOutcome, ScanMetrics), ScanError> {
    let start = Instant::now();
    let requested = threads.max(1);
    // ≥4 blocks per requested worker so the pool has slack to balance,
    // capped so snapshot-sized stores rebalance often.
    let block = store.len().div_ceil(requested * 4).clamp(1, MAX_BLOCK);
    let blocks = store.len().div_ceil(block);

    // Smallest block index seen to fail. Blocks after it are skipped;
    // blocks before it still run, so the first failing block always runs
    // and is the error at every thread count. Relaxed: it publishes no
    // other data, and results reach the merge through `par_map`'s joins.
    let first_failure = AtomicUsize::new(usize::MAX);
    let results = par_map(blocks, requested, 1, |b| {
        if b > first_failure.load(Ordering::Relaxed) {
            return None;
        }
        let lo = b * block;
        let hi = (lo + block).min(store.len());
        let run = catch_unwind(AssertUnwindSafe(|| scan_block(store, lo..hi, classifier)));
        if run.is_err() {
            first_failure.fetch_min(b, Ordering::Relaxed);
        }
        Some(run.map_err(|payload| panic_message(payload.as_ref())))
    });

    let mut out = ScanOutcome {
        by_brand: vec![0; brand_count],
        ..ScanOutcome::default()
    };
    let mut metrics = ScanMetrics {
        blocks,
        requested_workers: requested,
        ..ScanMetrics::default()
    };
    // Merge in block order == store order, so first-record-wins dedupe is
    // deterministic for every thread count.
    let mut seen = std::collections::HashSet::new();
    for (shard, result) in results.into_iter().enumerate() {
        let (p, stats) = match result {
            Some(Ok(block)) => block,
            Some(Err(cause)) => return Err(ScanError { shard, cause }),
            None => unreachable!("blocks are skipped only after an earlier failure"),
        };
        out.scanned += p.scanned;
        out.invalid += p.invalid;
        // The cut's own length for this block, not the block's count, so
        // `scan.records_accounted` compares two independent sums.
        metrics.records += (store.len() - shard * block).min(block);
        metrics.classify.merge(&stats);
        for m in p.matches {
            if seen.insert(m.domain.registrable()) {
                out.by_type[type_index(m.squat_type)] += 1;
                out.by_brand[m.brand] += 1;
                out.matches.push(m);
            } else {
                metrics.dedupe_collisions += 1;
            }
        }
    }
    metrics.invalid = out.invalid;
    metrics.wall = start.elapsed();
    Ok((out, metrics))
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn scan_block<C: Classify>(
    store: &RecordStore,
    block: std::ops::Range<usize>,
    classifier: &C,
) -> (BlockPartial, ClassifyStats) {
    let mut out = BlockPartial::default();
    let mut stats = ClassifyStats::default();
    // One string buffer cycles through every non-matching record of the
    // block (parse → classify → recover), so the common miss performs no
    // heap allocation at all.
    let mut buf = String::new();
    for i in block {
        let (name, ip) = store.record(i);
        out.scanned += 1;
        let domain = match DomainName::parse_reuse(name, std::mem::take(&mut buf)) {
            Ok(d) => d,
            Err(_) => {
                out.invalid += 1;
                continue;
            }
        };
        match classifier.classify_record(&domain, &mut stats) {
            Some(m) => out.matches.push(SquatRecord {
                domain,
                ip,
                brand: m.brand,
                squat_type: m.squat_type,
            }),
            None => buf = domain.into_string(),
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SnapshotConfig};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn scan_recovers_planted_squats() {
        let reg = BrandRegistry::with_size(40);
        let cfg = SnapshotConfig::tiny();
        let (store, stats) = generate(&cfg, &reg);
        let det = SquatDetector::new(&reg);
        let out = scan(&store, &reg, &det, 4);
        let planted: usize = stats.planted_by_type.iter().sum();
        let found = out.total_matches();
        assert!(out.scanned == store.len());
        // Recall must be high; some benign haystack hits may add a little.
        assert!(
            found as f64 >= planted as f64 * 0.9,
            "found {found} of {planted} planted"
        );
        assert!(
            found as f64 <= planted as f64 * 1.2,
            "too many false hits: {found} vs {planted}"
        );
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let reg = BrandRegistry::with_size(20);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        let a = scan(&store, &reg, &det, 1);
        let b = scan(&store, &reg, &det, 8);
        assert_eq!(a.total_matches(), b.total_matches());
        assert_eq!(a.by_type, b.by_type);
        assert_eq!(a.by_brand, b.by_brand);
        // Not just the counts: the exact match records (domain, IP, brand,
        // type) and their order must be thread-count invariant.
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn scan_is_deterministic_across_thread_counts() {
        // The scheduler contract: matches, counters and order are
        // identical for 1, 4 and 8 workers.
        let reg = BrandRegistry::with_size(25);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        let (base, base_metrics) = scan_with_metrics(&store, &reg, &det, 1);
        for threads in [4, 8] {
            let (out, metrics) = scan_with_metrics(&store, &reg, &det, threads);
            assert_eq!(base.matches, out.matches, "threads={threads}");
            assert_eq!(base.by_type, out.by_type, "threads={threads}");
            assert_eq!(base.by_brand, out.by_brand, "threads={threads}");
            assert_eq!(base.scanned, out.scanned, "threads={threads}");
            assert_eq!(base.invalid, out.invalid, "threads={threads}");
            // The counters are sums over blocks, so they do not depend on
            // which worker ran which block either.
            assert_eq!(
                base_metrics.records(),
                metrics.records(),
                "threads={threads}"
            );
            assert_eq!(
                base_metrics.invalid(),
                metrics.invalid(),
                "threads={threads}"
            );
            assert_eq!(base_metrics.probes(), metrics.probes(), "threads={threads}");
            assert_eq!(
                base_metrics.deep_probes(),
                metrics.deep_probes(),
                "threads={threads}"
            );
            assert_eq!(
                base_metrics.allocations_avoided(),
                metrics.allocations_avoided(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn dedupe_is_first_record_wins_for_any_thread_count() {
        // Three records share a registrable domain but carry different IPs;
        // the record earliest in the store must win regardless of how the
        // store is divided across workers.
        let reg = BrandRegistry::with_size(10);
        let det = SquatDetector::new(&reg);
        let mut store = RecordStore::new();
        store.push("mail.goofle.com", Ipv4Addr::new(9, 9, 9, 9));
        for i in 0..40u8 {
            store.push(
                &format!("filler-{i}.example.com"),
                Ipv4Addr::new(10, 0, 0, i),
            );
        }
        store.push("goofle.com", Ipv4Addr::new(1, 1, 1, 1));
        store.push("www.goofle.com", Ipv4Addr::new(2, 2, 2, 2));
        for threads in [1, 2, 3, 7, 16] {
            let (out, metrics) = scan_with_metrics(&store, &reg, &det, threads);
            assert_eq!(out.total_matches(), 1, "threads={threads}");
            assert_eq!(
                out.matches[0].ip,
                Ipv4Addr::new(9, 9, 9, 9),
                "first record must win (threads={threads})"
            );
            assert_eq!(metrics.dedupe_collisions, 2, "threads={threads}");
        }
    }

    #[test]
    fn metrics_account_for_every_record() {
        let reg = BrandRegistry::with_size(20);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        let threads = 4;
        let (out, metrics) = scan_with_metrics(&store, &reg, &det, threads);
        assert_eq!(metrics.requested_workers, threads);
        assert_eq!(metrics.records(), store.len());
        assert_eq!(metrics.records(), out.scanned);
        assert_eq!(metrics.invalid(), out.invalid);
        // At least four blocks per requested worker, for balance.
        assert!(metrics.blocks >= 4 * threads, "blocks={}", metrics.blocks);
        // The detector probes at least once per valid record, the filter
        // rejects most probes, and the ASCII fast paths must be reporting
        // avoided allocations.
        assert!(metrics.probes() >= (store.len() - out.invalid) as u64);
        assert!(metrics.deep_probes() < metrics.probes());
        assert!(metrics.allocations_avoided() > 0);
        assert!(metrics.records_per_sec() > 0.0);
    }

    #[test]
    fn small_store_is_cut_into_one_block_per_record() {
        // The old `div_ceil` chunking cut 9 records × 8 threads into only
        // 5 chunks; the block cut gives every record its own block, so the
        // pool can fan out all 8 workers.
        let reg = BrandRegistry::with_size(5);
        let det = SquatDetector::new(&reg);
        let mut store = RecordStore::new();
        for i in 0..9u8 {
            store.push(
                &format!("record-{i}.example.com"),
                Ipv4Addr::new(10, 0, 0, i),
            );
        }
        let (out, metrics) = scan_with_metrics(&store, &reg, &det, 8);
        assert_eq!(metrics.requested_workers, 8);
        assert_eq!(metrics.blocks, 9);
        assert_eq!(metrics.records(), 9);
        assert_eq!(out.scanned, 9);

        // Fewer records than workers: one block each, and no more.
        let mut tiny = RecordStore::new();
        tiny.push("one.example.com", Ipv4Addr::new(1, 1, 1, 1));
        tiny.push("two.example.com", Ipv4Addr::new(1, 1, 1, 2));
        let (_, metrics) = scan_with_metrics(&tiny, &reg, &det, 8);
        assert_eq!(metrics.requested_workers, 8);
        assert_eq!(metrics.blocks, 2);
    }

    #[test]
    fn empty_store_scans_cleanly() {
        let reg = BrandRegistry::with_size(5);
        let det = SquatDetector::new(&reg);
        let store = RecordStore::new();
        let (out, metrics) = scan_with_metrics(&store, &reg, &det, 4);
        assert_eq!(out.scanned, 0);
        assert_eq!(out.total_matches(), 0);
        assert_eq!(metrics.requested_workers, 4);
        assert_eq!(metrics.blocks, 0);
        assert_eq!(metrics.records(), 0);
    }

    /// A classifier that panics on every domain whose core label starts
    /// with `poison`.
    struct Trap;

    impl Classify for Trap {
        fn classify_record(
            &self,
            domain: &DomainName,
            _stats: &mut ClassifyStats,
        ) -> Option<SquatMatch> {
            assert!(
                !domain.core_label().starts_with("poison"),
                "injected classifier fault"
            );
            None
        }
    }

    /// [`try_scan_impl`] over a panicking classifier, with the default
    /// panic hook's backtrace spam silenced for the intentional panics
    /// (hooks are global, so it is restored before returning).
    fn trapped_scan<C: Classify>(store: &RecordStore, classifier: &C, threads: usize) -> ScanError {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = try_scan_impl(store, 5, classifier, threads);
        std::panic::set_hook(prev);
        result.unwrap_err()
    }

    #[test]
    fn worker_panic_is_reported_as_scan_error() {
        // A classifier that panics on one specific domain: the scan must
        // return a structured error naming the failing shard, not abort.
        let mut store = RecordStore::new();
        for i in 0..100u8 {
            store.push(&format!("fine-{i}.example.com"), Ipv4Addr::new(10, 0, 0, i));
        }
        store.push("poisoned-record.com", Ipv4Addr::new(9, 9, 9, 9));
        let err = trapped_scan(&store, &Trap, 4);
        assert!(err.cause.contains("injected classifier fault"), "{err}");
        // 101 records × 4 threads → block size 7; the poisoned record is
        // the last one, in the final block.
        assert_eq!(err.shard, 14, "{err}");
        assert!(err.to_string().contains("shard 14"));
    }

    #[test]
    fn first_failing_block_is_the_error_at_every_thread_count() {
        // Two poisoned records in different blocks. With more than one
        // worker the earlier record waits until the later one has started
        // to panic, so the later block fails first in time; the error must
        // still name the earlier block in store order.
        struct LaterFailsFirst {
            hold_earlier: bool,
            later_failed: AtomicBool,
        }
        impl Classify for LaterFailsFirst {
            fn classify_record(
                &self,
                domain: &DomainName,
                _stats: &mut ClassifyStats,
            ) -> Option<SquatMatch> {
                match domain.core_label() {
                    "poison-150" => self.later_failed.store(true, Ordering::SeqCst),
                    "poison-50" => {
                        while self.hold_earlier && !self.later_failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                    _ => return None,
                }
                panic!("injected classifier fault");
            }
        }
        let mut store = RecordStore::new();
        for i in 0..200u8 {
            let name = match i {
                50 | 150 => format!("poison-{i}.com"),
                _ => format!("fine-{i}.example.com"),
            };
            store.push(&name, Ipv4Addr::new(10, 0, 0, i));
        }
        for threads in [1, 2, 8] {
            // Block size is 200 / (4 × threads), rounded up.
            let block = 200usize.div_ceil(4 * threads);
            assert_ne!(50 / block, 150 / block, "threads={threads}");
            // One worker runs the blocks in order, so it must not wait.
            let classifier = LaterFailsFirst {
                hold_earlier: threads > 1,
                later_failed: AtomicBool::new(false),
            };
            let err = trapped_scan(&store, &classifier, threads);
            assert!(classifier.later_failed.load(Ordering::SeqCst) == (threads > 1));
            assert_eq!(err.shard, 50 / block, "threads={threads}: {err}");
            assert!(err.cause.contains("injected classifier fault"), "{err}");
        }
    }

    #[test]
    fn subdomain_records_dedupe_to_registrable() {
        let reg = BrandRegistry::with_size(10);
        let det = SquatDetector::new(&reg);
        let mut store = RecordStore::new();
        store.push("goofle.com", Ipv4Addr::new(1, 1, 1, 1));
        store.push("www.goofle.com", Ipv4Addr::new(2, 2, 2, 2));
        store.push("mail.goofle.com", Ipv4Addr::new(3, 3, 3, 3));
        let out = scan(&store, &reg, &det, 2);
        assert_eq!(out.total_matches(), 1);
        assert_eq!(out.count(SquatType::Bits), 1);
    }

    #[test]
    fn invalid_records_are_counted_not_fatal() {
        let reg = BrandRegistry::with_size(5);
        let det = SquatDetector::new(&reg);
        let mut store = RecordStore::new();
        store.push("not a domain", Ipv4Addr::new(1, 1, 1, 1));
        store.push("paypal-login.com", Ipv4Addr::new(1, 1, 1, 2));
        let out = scan(&store, &reg, &det, 1);
        assert_eq!(out.invalid, 1);
        assert_eq!(out.total_matches(), 1);
    }

    #[test]
    fn exported_telemetry_reconciles_and_is_thread_invariant() {
        let reg = BrandRegistry::with_size(20);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        let mut renders = Vec::new();
        for threads in [1, 4, 8] {
            let (out, metrics) = scan_with_metrics(&store, &reg, &det, threads);
            assert!(ScanMetrics::reconciles(&out, &metrics), "threads={threads}");
            let telemetry = squatphi_telemetry::Registry::new();
            let scope = telemetry.scope("scan");
            out.export(&scope);
            metrics.export(&scope);
            let mut snap = telemetry.snapshot();
            snap.strip_timings();
            // Execution shape (worker counts, block tallies) legitimately
            // varies with the thread count; everything else must not.
            renders.push(snap.retain(|n| !n.starts_with("scan.exec.")).render());
        }
        assert_eq!(renders[0], renders[1]);
        assert_eq!(renders[0], renders[2]);
    }

    #[test]
    fn records_accounted_catches_a_count_lost_in_the_merge() {
        // `exec.records` is the cut's length and `scanned` the blocks'
        // own counts, so a block missing from the merge breaks the sum.
        let reg = BrandRegistry::with_size(20);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        for threads in [1, 4] {
            let (mut out, metrics) = scan_with_metrics(&store, &reg, &det, threads);
            assert!(metrics.blocks > 1, "threads={threads}");
            assert_eq!(metrics.records(), store.len(), "threads={threads}");
            assert!(ScanMetrics::reconciles(&out, &metrics), "threads={threads}");
            out.scanned -= 1;
            assert!(
                !ScanMetrics::reconciles(&out, &metrics),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn type_counts_sum_to_matches() {
        let reg = BrandRegistry::with_size(30);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        let out = scan(&store, &reg, &det, 3);
        assert_eq!(out.by_type.iter().sum::<usize>(), out.total_matches());
        assert_eq!(out.by_brand.iter().sum::<usize>(), out.total_matches());
    }
}
