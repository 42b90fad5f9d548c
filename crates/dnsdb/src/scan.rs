//! Multi-threaded squatting scan over the record store (Figure 2 path).
//!
//! # Scheduling
//!
//! Workers do not own fixed contiguous chunks. The store is cut into
//! small **blocks** and every worker pulls the next unclaimed block index
//! from a shared atomic cursor, so a run of expensive records on one
//! thread never stalls the others and the work stays balanced regardless
//! of how matches cluster in the snapshot. The block size adapts to the input: at least four
//! blocks per requested worker (so tiny stores still fan out — the old
//! `div_ceil` chunking spawned 5 workers for 9 records × 8 threads),
//! capped at `MAX_BLOCK` records so huge stores rebalance often.
//!
//! This is the one fan-out that does not run on
//! [`squatphi_telemetry::par_map`]: its per-worker [`WorkerMetrics`] are
//! part of the scan checkpoint format and `scan.exec.*`, and it stops
//! claiming blocks once any shard has failed (see DESIGN.md, Parallelism).
//!
//! # Determinism
//!
//! Results are merged **in block order**, which is store order, so the
//! first-record-wins dedupe produces byte-identical `matches`, `by_type`
//! and `by_brand` for every thread count (see
//! `scan_is_deterministic_across_thread_counts`).
//!
//! # Failure
//!
//! A panic inside a worker no longer takes the process down with a bare
//! `join().expect(..)`: each block runs under `catch_unwind`, remaining
//! workers drain, and [`try_scan_with_metrics`] returns a structured
//! [`ScanError`] naming the failing shard so the supervision layer can
//! surface it as a `StagePanic` and retry or checkpoint around it.

use crate::store::RecordStore;
use squatphi_domain::DomainName;
use squatphi_squat::{BrandId, BrandRegistry, ClassifyStats, SquatDetector, SquatMatch, SquatType};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bound on records per scheduler block. Small enough that even a
/// snapshot-sized store produces hundreds of blocks for the cursor to
/// balance, large enough that the per-block bookkeeping (one atomic
/// fetch-add, one `Vec` push) is noise against classifying the records.
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
#[derive(Debug, Clone, Default)]
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

/// A scan worker panicked. The scan is abandoned (remaining workers
/// drain without starting new blocks) and no partial outcome is exposed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// Index of the scheduler block (shard) whose records were being
    /// classified when the panic fired; the smallest failing index when
    /// several workers trip concurrently.
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

/// Counters one scan worker reports for the blocks it claimed.
#[derive(Debug, Clone, Default)]
pub struct WorkerMetrics {
    /// Records this worker classified (valid or not).
    pub records: usize,
    /// Records that failed domain validation.
    pub invalid: usize,
    /// Scheduler blocks this worker claimed from the cursor.
    pub blocks: usize,
    /// Detector probes performed across the claimed blocks (fingerprint
    /// tests; each corresponds to one legacy hash probe).
    pub probes: u64,
    /// Probes that passed the fingerprint bit filter and consulted the
    /// backing map (see `squatphi_squat::ClassifyStats::deep_probes`).
    pub deep_probes: u64,
    /// Heap allocations the detector's stack buffers avoided
    /// (see `squatphi_squat::ClassifyStats`).
    pub allocations_avoided: u64,
    /// Wall-clock time the worker spent, spawn to drain.
    pub elapsed: Duration,
}

impl WorkerMetrics {
    /// Records classified per second by this worker.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.records as f64 / secs
        } else {
            0.0
        }
    }
}

/// Instrumentation for one [`scan`] call: per-worker counters plus the
/// merge-phase dedupe statistics and the end-to-end wall clock.
#[derive(Debug, Clone, Default)]
pub struct ScanMetrics {
    /// One entry per spawned worker thread, in spawn order.
    pub workers: Vec<WorkerMetrics>,
    /// Worker threads the caller asked for. The scan spawns
    /// `min(requested, blocks)` — fewer only when the store has fewer
    /// records than requested workers — and reports both so silent
    /// under-use of cores (the old `div_ceil` chunking bug) is visible.
    pub requested_workers: usize,
    /// Matches dropped at merge because an earlier block already claimed
    /// the registrable domain (first-record-wins dedupe).
    pub dedupe_collisions: usize,
    /// Wall-clock time of the whole scan, including the merge.
    pub wall: Duration,
}

impl ScanMetrics {
    /// Worker threads actually spawned.
    pub fn actual_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total records classified across all workers.
    pub fn records(&self) -> usize {
        self.workers.iter().map(|w| w.records).sum()
    }

    /// Total invalid records across all workers.
    pub fn invalid(&self) -> usize {
        self.workers.iter().map(|w| w.invalid).sum()
    }

    /// Total detector probes across all workers.
    pub fn probes(&self) -> u64 {
        self.workers.iter().map(|w| w.probes).sum()
    }

    /// Total probes that got past the fingerprint filter.
    pub fn deep_probes(&self) -> u64 {
        self.workers.iter().map(|w| w.deep_probes).sum()
    }

    /// Total heap allocations avoided across all workers.
    pub fn allocations_avoided(&self) -> u64 {
        self.workers.iter().map(|w| w.allocations_avoided).sum()
    }

    /// End-to-end throughput (records per wall-clock second, all workers).
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.records() as f64 / secs
        } else {
            0.0
        }
    }

    /// Publishes the instrumentation into the same scope as
    /// [`ScanOutcome::export`]. Aggregates that must reconcile with the
    /// outcome (`exec.records`, `exec.invalid`) and merge statistics land
    /// at the top level; per-run execution shape (worker counts, the
    /// worker duration histogram) goes under `exec.` so invariance tests
    /// can drop it, and wall-clock values use timing-rule names so default
    /// output strips them.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        scope.set_u64("dedupe_collisions", self.dedupe_collisions as u64);
        scope.set_u64(
            "wall_nanos",
            u64::try_from(self.wall.as_nanos()).unwrap_or(u64::MAX),
        );
        scope.set_f64("records_per_sec", self.records_per_sec());
        let exec = scope.scope("exec");
        exec.set_u64("requested_workers", self.requested_workers as u64);
        exec.set_u64("actual_workers", self.actual_workers() as u64);
        exec.set_u64("records", self.records() as u64);
        exec.set_u64("invalid", self.invalid() as u64);
        exec.set_u64("blocks", self.workers.iter().map(|w| w.blocks as u64).sum());
        exec.set_u64("probes", self.probes());
        exec.set_u64("deep_probes", self.deep_probes());
        exec.set_u64("allocations_avoided", self.allocations_avoided());
        let durations = exec.histogram("worker_durations");
        for w in &self.workers {
            durations.record(w.elapsed);
        }
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

/// [`scan`], additionally returning per-worker and merge instrumentation.
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

/// [`scan_with_metrics`] with structured worker-failure reporting: a
/// panicking worker yields `Err(ScanError)` naming the failing shard
/// instead of poisoning the whole process.
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
    let mut out = ScanOutcome {
        by_brand: vec![0; brand_count],
        ..ScanOutcome::default()
    };
    let mut metrics = ScanMetrics {
        requested_workers: requested,
        ..ScanMetrics::default()
    };
    if store.is_empty() {
        metrics.wall = start.elapsed();
        return Ok((out, metrics));
    }

    // ≥4 blocks per requested worker so the cursor has slack to balance,
    // capped so snapshot-sized stores rebalance often.
    let block = store.len().div_ceil(requested * 4).clamp(1, MAX_BLOCK);
    let blocks = store.len().div_ceil(block);
    let workers = requested.min(blocks);

    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Smallest failing block and its panic payload (deterministic pick
    // when several workers trip at once).
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);

    let record_failure = |shard: usize, cause: String| {
        abort.store(true, Ordering::Relaxed);
        let mut slot = failure.lock().expect("failure slot");
        if slot.as_ref().is_none_or(|(s, _)| shard < *s) {
            *slot = Some((shard, cause));
        }
    };

    // One worker loop, shared by the spawned threads and the calling
    // thread: the caller runs a worker itself, so a 1-thread scan spawns
    // nothing and an N-thread scan spawns N − 1. Block-level panics are
    // caught inside the loop; the catch around the loop itself (mirrored
    // by `join` for spawned workers) covers scheduler bookkeeping.
    let worker_loop = || {
        let t0 = Instant::now();
        let mut mine = Vec::new();
        let mut wm = WorkerMetrics::default();
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            let lo = b * block;
            if lo >= store.len() {
                break;
            }
            let hi = (lo + block).min(store.len());
            let run = catch_unwind(AssertUnwindSafe(|| scan_block(store, lo..hi, classifier)));
            match run {
                Ok((partial, stats)) => {
                    wm.records += partial.scanned;
                    wm.invalid += partial.invalid;
                    wm.blocks += 1;
                    wm.probes += stats.probes;
                    wm.deep_probes += stats.deep_probes;
                    wm.allocations_avoided += stats.allocations_avoided;
                    mine.push((b, partial));
                }
                Err(payload) => {
                    record_failure(b, panic_message(payload.as_ref()));
                    break;
                }
            }
        }
        wm.elapsed = t0.elapsed();
        (mine, wm)
    };

    let results: Vec<(Vec<(usize, BlockPartial)>, WorkerMetrics)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(worker_loop)).collect();
        let inline = match catch_unwind(AssertUnwindSafe(&worker_loop)) {
            Ok(r) => r,
            Err(payload) => {
                record_failure(usize::MAX, panic_message(payload.as_ref()));
                (Vec::new(), WorkerMetrics::default())
            }
        };
        let mut results = vec![inline];
        results.extend(handles.into_iter().map(|h| match h.join() {
            Ok(r) => r,
            Err(payload) => {
                // A panic outside catch_unwind (scheduler bookkeeping
                // itself) — attribute it to the whole scan.
                record_failure(usize::MAX, panic_message(payload.as_ref()));
                (Vec::new(), WorkerMetrics::default())
            }
        }));
        results
    });

    if let Some((shard, cause)) = failure.into_inner().expect("failure slot") {
        return Err(ScanError { shard, cause });
    }

    // Merge in block order == store order, so first-record-wins dedupe is
    // deterministic for every thread count.
    let mut slots: Vec<Option<BlockPartial>> = Vec::with_capacity(blocks);
    slots.resize_with(blocks, || None);
    for (mine, wm) in results {
        for (b, partial) in mine {
            debug_assert!(slots[b].is_none(), "cursor hands out each block once");
            slots[b] = Some(partial);
        }
        metrics.workers.push(wm);
    }
    let mut seen = std::collections::HashSet::new();
    for slot in slots {
        let p = slot.expect("no failure recorded, so every block completed");
        out.scanned += p.scanned;
        out.invalid += p.invalid;
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
        let base = scan(&store, &reg, &det, 1);
        for threads in [4, 8] {
            let out = scan(&store, &reg, &det, threads);
            assert_eq!(base.matches, out.matches, "threads={threads}");
            assert_eq!(base.by_type, out.by_type, "threads={threads}");
            assert_eq!(base.by_brand, out.by_brand, "threads={threads}");
            assert_eq!(base.scanned, out.scanned, "threads={threads}");
            assert_eq!(base.invalid, out.invalid, "threads={threads}");
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
        assert_eq!(metrics.actual_workers(), threads);
        assert_eq!(metrics.records(), store.len());
        assert_eq!(metrics.records(), out.scanned);
        assert_eq!(metrics.invalid(), out.invalid);
        // Every block was claimed by exactly one worker.
        let blocks: usize = metrics.workers.iter().map(|w| w.blocks).sum();
        assert!(blocks >= threads, "expected ≥1 block per worker slack");
        // The detector probes at least once per valid record, the filter
        // rejects most probes, and the ASCII fast paths must be reporting
        // avoided allocations.
        assert!(metrics.probes() >= (store.len() - out.invalid) as u64);
        assert!(metrics.deep_probes() < metrics.probes());
        assert!(metrics.allocations_avoided() > 0);
        assert!(metrics.records_per_sec() > 0.0);
    }

    #[test]
    fn small_store_spawns_all_requested_workers() {
        // The old `div_ceil` chunking spawned only 5 workers for 9 records
        // × 8 threads; the block scheduler fans out all 8.
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
        assert_eq!(metrics.actual_workers(), 8);
        assert_eq!(metrics.records(), 9);
        assert_eq!(out.scanned, 9);

        // Fewer records than workers: spawning beyond the block count
        // would idle threads, so actual < requested — and is reported.
        let mut tiny = RecordStore::new();
        tiny.push("one.example.com", Ipv4Addr::new(1, 1, 1, 1));
        tiny.push("two.example.com", Ipv4Addr::new(1, 1, 1, 2));
        let (_, metrics) = scan_with_metrics(&tiny, &reg, &det, 8);
        assert_eq!(metrics.requested_workers, 8);
        assert_eq!(metrics.actual_workers(), 2);
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
        assert_eq!(metrics.actual_workers(), 0);
    }

    #[test]
    fn worker_panic_is_reported_as_scan_error() {
        // A classifier that panics on one specific domain: the scan must
        // return a structured error naming the failing shard, not abort.
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
        let mut store = RecordStore::new();
        for i in 0..100u8 {
            store.push(&format!("fine-{i}.example.com"), Ipv4Addr::new(10, 0, 0, i));
        }
        store.push("poisoned-record.com", Ipv4Addr::new(9, 9, 9, 9));
        // Silence the default panic hook's backtrace spam for the
        // intentional panic (other tests run in other processes only for
        // integration tests, but hooks are global — restore after).
        // Silence the default panic hook's backtrace spam for the
        // intentional worker panic; restore it before asserting.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = try_scan_impl(&store, 5, &Trap, 4);
        std::panic::set_hook(prev);
        let err = result.unwrap_err();
        assert!(err.cause.contains("injected classifier fault"), "{err}");
        // 101 records × 4 threads → block size 7; the poisoned record is
        // the last one, in the final block.
        assert_eq!(err.shard, 14, "{err}");
        assert!(err.to_string().contains("shard 14"));
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
    fn type_counts_sum_to_matches() {
        let reg = BrandRegistry::with_size(30);
        let (store, _) = generate(&SnapshotConfig::tiny(), &reg);
        let det = SquatDetector::new(&reg);
        let out = scan(&store, &reg, &det, 3);
        assert_eq!(out.by_type.iter().sum::<usize>(), out.total_matches());
        assert_eq!(out.by_brand.iter().sum::<usize>(), out.total_matches());
    }
}
