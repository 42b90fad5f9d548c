//! Pipeline supervision: the fallible, stage-structured runner behind
//! [`SquatPhi::try_run`] (paper §3.2/§6 — a month-long measurement run
//! must treat partial failure as the normal case).
//!
//! Three layers:
//!
//! * **Error taxonomy** — [`PipelineError`] carries the failing
//!   [`PipelineStage`], a structured [`PipelineErrorKind`] cause, and the
//!   stages that completed before the failure (partial-progress context).
//! * **Per-record isolation** — the [`Supervisor`]'s batch executor runs
//!   every page analysis under `catch_unwind` with a bounded retry
//!   budget. A record that keeps panicking is **quarantined**: counted,
//!   attributed (stage, key, cause, attempts), excluded from downstream
//!   stages, and — because quarantine decisions depend only on the
//!   record's content and the fault plan's seeded draws, never on thread
//!   interleaving — excluded identically under any worker count.
//! * **Reporting** — [`SupervisionReport`] surfaces quarantines,
//!   degraded pages, retries and resumed/checkpointed stages, and
//!   [`SupervisionReport::reconciles`] proves injected faults are
//!   conserved: every injection is accounted for as quarantined,
//!   recovered, degraded or truncated, in the consumed-by style of
//!   `TransportMetrics`.
//!
//! Panic *noise* is suppressed without losing panics: a process-global
//! hook (installed once, delegating to the previous hook) skips printing
//! only for threads that flagged themselves as supervised.
//!
//! [`SquatPhi::try_run`]: crate::pipeline::SquatPhi::try_run

use crate::artifact::PageArtifact;
use crate::checkpoint::CheckpointError;
use crate::fault::{FaultCounts, PageFault, PipelineFaultPlan};
use crate::features::{FeatureExtractor, ANALYZE_GRAIN};
use parking_lot::Mutex;
use squatphi_durability::DiskFaultPlan;
use squatphi_nlp::SparseVec;
use squatphi_telemetry::par_map;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The four pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PipelineStage {
    /// Stage 1 — snapshot synthesis and the squatting scan (§3.1).
    Scan,
    /// Stage 2 — web-world build and crawl (§3.2).
    Crawl,
    /// Stage 3 — ground truth, feature extraction, training (§5).
    Train,
    /// Stage 4 — in-the-wild detection for both device profiles (§6.1).
    Detect,
}

impl PipelineStage {
    /// All stages in execution order.
    pub const ALL: [PipelineStage; 4] = [
        PipelineStage::Scan,
        PipelineStage::Crawl,
        PipelineStage::Train,
        PipelineStage::Detect,
    ];

    /// Canonical lower-case stage name (the `--stop-after` vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            PipelineStage::Scan => "scan",
            PipelineStage::Crawl => "crawl",
            PipelineStage::Train => "train",
            PipelineStage::Detect => "detect",
        }
    }

    /// Parses a stage name.
    pub fn parse(s: &str) -> Option<PipelineStage> {
        PipelineStage::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl std::fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong, structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineErrorKind {
    /// The configuration cannot produce a meaningful run.
    Config(String),
    /// A cross-stage invariant broke (e.g. a candidate/vector length
    /// mismatch that would silently misattribute scores).
    StageInvariant(String),
    /// A stage-level panic that per-record isolation cannot absorb (or
    /// `fail_fast` promoted the first record panic to).
    StagePanic {
        /// Record key or stage-internal operation that panicked.
        key: String,
        /// Stringified panic payload.
        cause: String,
    },
    /// More records quarantined than the configured limit tolerates.
    QuarantineOverflow {
        /// The configured limit.
        limit: usize,
        /// Quarantined records when the run gave up (≥ limit; the exact
        /// value can vary with worker timing — the decision to overflow
        /// does not).
        quarantined: usize,
    },
    /// Checkpoint persistence failed (I/O, not staleness — a stale or
    /// corrupt checkpoint is recomputed, not fatal).
    Checkpoint(CheckpointError),
    /// The run was interrupted on request (`stop_after`): not a failure,
    /// but the result is incomplete by construction.
    Interrupted,
}

/// A structured pipeline failure: which stage, why, and how far the run
/// got before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// The stage that failed (for [`PipelineErrorKind::Interrupted`],
    /// the stage *after which* the run stopped).
    pub stage: PipelineStage,
    /// Structured cause.
    pub kind: PipelineErrorKind,
    /// Stages that completed before the failure, in execution order.
    pub completed: Vec<PipelineStage>,
}

impl PipelineError {
    /// True when this is a requested interruption, not a failure.
    pub fn is_interrupted(&self) -> bool {
        matches!(self.kind, PipelineErrorKind::Interrupted)
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            PipelineErrorKind::Config(msg) => write!(f, "stage {}: config: {msg}", self.stage),
            PipelineErrorKind::StageInvariant(msg) => {
                write!(f, "stage {}: invariant broken: {msg}", self.stage)
            }
            PipelineErrorKind::StagePanic { key, cause } => {
                write!(f, "stage {}: panic in {key}: {cause}", self.stage)
            }
            PipelineErrorKind::QuarantineOverflow { limit, quarantined } => write!(
                f,
                "stage {}: quarantine overflow ({quarantined} records, limit {limit})",
                self.stage
            ),
            PipelineErrorKind::Checkpoint(e) => write!(f, "stage {}: checkpoint: {e}", self.stage),
            PipelineErrorKind::Interrupted => {
                write!(f, "interrupted after stage {} as requested", self.stage)
            }
        }?;
        if !self.completed.is_empty() {
            let done: Vec<&str> = self.completed.iter().map(PipelineStage::name).collect();
            write!(f, " (completed: {})", done.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

/// How [`SquatPhi::try_run`] should behave around failure and persistence.
///
/// [`SquatPhi::try_run`]: crate::pipeline::SquatPhi::try_run
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Directory for stage checkpoints (`None` = no checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Replay completed stages from valid checkpoints instead of
    /// recomputing them.
    pub resume: bool,
    /// Promote the first per-record panic to a [`PipelineErrorKind::StagePanic`]
    /// instead of retrying and quarantining.
    pub fail_fast: bool,
    /// Re-analysis attempts granted to a panicking record before it is
    /// quarantined (total attempts = `retry_budget + 1`).
    pub retry_budget: u32,
    /// Quarantined-record ceiling; crossing it aborts the stage with
    /// [`PipelineErrorKind::QuarantineOverflow`].
    pub quarantine_limit: usize,
    /// Seeded fault plan to inject during the run.
    pub faults: PipelineFaultPlan,
    /// Stop (with [`PipelineErrorKind::Interrupted`]) after this stage's
    /// checkpoint is written — the deterministic stand-in for `kill -9`
    /// in resume tests.
    pub stop_after: Option<PipelineStage>,
    /// Seeded disk-fault plan injected under every durable checkpoint
    /// write (default: none). Output-neutral and excluded from the
    /// checkpoint config hash, so a no-fault resume can load checkpoints
    /// a faulted run committed.
    pub disk_faults: DiskFaultPlan,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            checkpoint_dir: None,
            resume: false,
            fail_fast: false,
            retry_budget: 1,
            quarantine_limit: 4096,
            faults: PipelineFaultPlan::none(),
            stop_after: None,
            disk_faults: DiskFaultPlan::none(),
        }
    }
}

/// One quarantined record: counted, attributed, excluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Stage whose executor quarantined the record.
    pub stage: PipelineStage,
    /// Stable record key (stage-qualified domain or feed index).
    pub key: String,
    /// Stringified cause of the final failing attempt.
    pub cause: String,
    /// Analysis attempts consumed (1 + retries).
    pub attempts: u32,
    /// True when the panic was planted by the fault plan.
    pub injected: bool,
}

/// The supervision outcome of one `try_run`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisionReport {
    /// Faults the plan actually injected (counted at processing time).
    pub injected: FaultCounts,
    /// Quarantined records, sorted by (stage, key) — deterministic
    /// regardless of worker count.
    pub quarantined: Vec<QuarantineEntry>,
    /// Injected flaky panics that succeeded within the retry budget.
    pub recovered: u64,
    /// Natural (non-injected) panics that succeeded on retry.
    pub recovered_natural: u64,
    /// Page analyses that fell back to the degraded lexical+form path
    /// (injected poisons + natural visual-stage failures).
    pub degraded: u64,
    /// The natural subset of `degraded`.
    pub degraded_natural: u64,
    /// Crawl records whose HTML the fault plan truncated.
    pub truncated: u64,
    /// Total re-analysis attempts spent across all records.
    pub retries: u64,
    /// Stages replayed from checkpoints (their counters above reflect
    /// only in-process work).
    pub resumed_stages: Vec<&'static str>,
    /// Stages whose outputs were checkpointed this run.
    pub checkpointed_stages: Vec<&'static str>,
    /// Stages whose on-disk checkpoint existed but was stale and got
    /// recomputed (honest config-change invalidation, not damage).
    pub invalidated_checkpoints: Vec<&'static str>,
    /// Stages resumed from an *older* checkpoint generation after the
    /// newest was damaged, with the per-generation damage classification
    /// (e.g. `("crawl", "g4 torn")`). Empty on healthy runs; a stage
    /// with no surviving generation is a [`PipelineErrorKind::Checkpoint`]
    /// error instead, never a silent recompute.
    pub recovered_checkpoints: Vec<(&'static str, String)>,
}

impl SupervisionReport {
    /// Quarantined records whose panic was injected by the fault plan.
    pub fn quarantined_injected(&self) -> u64 {
        self.quarantined.iter().filter(|q| q.injected).count() as u64
    }

    /// The conservation identity: every injected fault is accounted for
    /// exactly once as quarantined, recovered, degraded or truncated —
    /// nothing double-counts, nothing vanishes. Checked declaratively
    /// against the exported telemetry (`supervision.*_accounted`).
    pub fn reconciles(&self) -> bool {
        let reg = squatphi_telemetry::Registry::new();
        self.export(&reg.scope("supervision"));
        squatphi_telemetry::invariants::supervision_invariants().all_hold(&reg.snapshot())
    }

    /// Publishes the report into a telemetry scope (canonically
    /// `supervision`). Stage lists export as counts; the entry detail
    /// stays on the struct, which remains the typed view.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        let injected = scope.scope("injected");
        injected.set_u64("analyzer_panics", self.injected.analyzer_panics);
        injected.set_u64("poisoned_pages", self.injected.poisoned_pages);
        injected.set_u64("truncated_records", self.injected.truncated_records);
        scope.set_u64("quarantined", self.quarantined.len() as u64);
        scope.set_u64("quarantined_injected", self.quarantined_injected());
        scope.set_u64("recovered", self.recovered);
        scope.set_u64("recovered_natural", self.recovered_natural);
        scope.set_u64("degraded", self.degraded);
        scope.set_u64("degraded_natural", self.degraded_natural);
        scope.set_u64("truncated", self.truncated);
        scope.set_u64("retries", self.retries);
        scope.set_u64("resumed_stages", self.resumed_stages.len() as u64);
        scope.set_u64("checkpointed_stages", self.checkpointed_stages.len() as u64);
        scope.set_u64(
            "invalidated_checkpoints",
            self.invalidated_checkpoints.len() as u64,
        );
        scope.set_u64(
            "recovered_checkpoints",
            self.recovered_checkpoints.len() as u64,
        );
    }

    /// The violations, if any — the structured report behind
    /// [`SupervisionReport::reconciles`].
    pub fn violations(&self) -> Vec<squatphi_telemetry::Violation> {
        let reg = squatphi_telemetry::Registry::new();
        self.export(&reg.scope("supervision"));
        squatphi_telemetry::invariants::supervision_invariants()
            .check_all(&reg.snapshot())
            .err()
            .unwrap_or_default()
    }

    /// One-line human report, for CLI/stderr surfaces.
    pub fn report_line(&self) -> String {
        let mut line = format!(
            "{} injected ({} panics, {} poisons, {} truncations); \
             {} quarantined, {} recovered, {} degraded, {} retries ({})",
            self.injected.total(),
            self.injected.analyzer_panics,
            self.injected.poisoned_pages,
            self.injected.truncated_records,
            self.quarantined.len(),
            self.recovered + self.recovered_natural,
            self.degraded,
            self.retries,
            if self.reconciles() {
                "reconciled"
            } else {
                "NOT RECONCILED"
            },
        );
        if !self.resumed_stages.is_empty() {
            line.push_str(&format!("; resumed: {}", self.resumed_stages.join(", ")));
        }
        if !self.checkpointed_stages.is_empty() {
            line.push_str(&format!(
                "; checkpointed: {}",
                self.checkpointed_stages.join(", ")
            ));
        }
        if !self.invalidated_checkpoints.is_empty() {
            line.push_str(&format!(
                "; invalidated: {}",
                self.invalidated_checkpoints.join(", ")
            ));
        }
        if !self.recovered_checkpoints.is_empty() {
            let detail = self
                .recovered_checkpoints
                .iter()
                .map(|(stage, classes)| format!("{stage} ({classes})"))
                .collect::<Vec<_>>()
                .join(", ");
            line.push_str(&format!("; recovered checkpoints: {detail}"));
        }
        line
    }
}

// ---------------------------------------------------------------------------
// Quiet panic plumbing
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK_INSTALLED: OnceLock<()> = OnceLock::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" print for threads currently running a supervised
/// body, and delegates to the previously-installed hook for everyone
/// else. The panic itself still unwinds normally.
pub(crate) fn install_quiet_hook() {
    HOOK_INSTALLED.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Marks the current thread as supervised for the guard's lifetime.
pub(crate) struct QuietGuard {
    was: bool,
}

impl QuietGuard {
    pub(crate) fn new() -> Self {
        install_quiet_hook();
        QuietGuard {
            was: QUIET.with(|q| q.replace(true)),
        }
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET.with(|q| q.set(self.was));
    }
}

/// Marker payload of plan-injected panics, so the executor can attribute
/// them reliably.
struct InjectedPanic;

const INJECTED_CAUSE: &str = "injected analyzer panic (fault plan)";

fn payload_to_cause(payload: &(dyn std::any::Any + Send)) -> (String, bool) {
    if payload.is::<InjectedPanic>() {
        return (INJECTED_CAUSE.to_string(), true);
    }
    let cause = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    (cause, false)
}

// ---------------------------------------------------------------------------
// The supervised batch executor
// ---------------------------------------------------------------------------

/// One page of supervised work: a stable key plus the HTML to analyze.
pub(crate) struct PageJob<'a> {
    pub key: String,
    pub html: &'a str,
}

/// Shared supervision state for one `try_run`: fault bookkeeping,
/// quarantine, and the stop machinery for `fail_fast` / overflow.
pub(crate) struct Supervisor {
    faults: PipelineFaultPlan,
    fail_fast: bool,
    retry_budget: u32,
    quarantine_limit: usize,
    injected_panics: AtomicU64,
    injected_poisons: AtomicU64,
    injected_truncations: AtomicU64,
    recovered: AtomicU64,
    recovered_natural: AtomicU64,
    degraded: AtomicU64,
    degraded_natural: AtomicU64,
    truncated: AtomicU64,
    retries: AtomicU64,
    quarantine: Mutex<Vec<QuarantineEntry>>,
    stop: AtomicBool,
    overflowed: AtomicBool,
    first_failure: Mutex<Option<(String, String)>>,
    resumed: Mutex<Vec<&'static str>>,
    checkpointed: Mutex<Vec<&'static str>>,
    invalidated: Mutex<Vec<&'static str>>,
    recovered_ckpts: Mutex<Vec<(&'static str, String)>>,
}

impl Supervisor {
    pub(crate) fn new(opts: &RunOptions) -> Self {
        install_quiet_hook();
        Supervisor {
            faults: opts.faults,
            fail_fast: opts.fail_fast,
            retry_budget: opts.retry_budget,
            quarantine_limit: opts.quarantine_limit.max(1),
            injected_panics: AtomicU64::new(0),
            injected_poisons: AtomicU64::new(0),
            injected_truncations: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            recovered_natural: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            degraded_natural: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantine: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            overflowed: AtomicBool::new(false),
            first_failure: Mutex::new(None),
            resumed: Mutex::new(Vec::new()),
            checkpointed: Mutex::new(Vec::new()),
            invalidated: Mutex::new(Vec::new()),
            recovered_ckpts: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn note_resumed(&self, stage: PipelineStage) {
        self.resumed.lock().push(stage.name());
    }

    pub(crate) fn note_checkpointed(&self, stage: PipelineStage) {
        self.checkpointed.lock().push(stage.name());
    }

    pub(crate) fn note_invalidated(&self, stage: PipelineStage) {
        self.invalidated.lock().push(stage.name());
    }

    /// Records a stage that resumed from an older checkpoint generation
    /// after the newest was damaged (`detail` is the classification).
    pub(crate) fn note_recovered_checkpoint(&self, stage: PipelineStage, detail: String) {
        self.recovered_ckpts.lock().push((stage.name(), detail));
    }

    /// Records one crawl record truncated by the fault plan.
    pub(crate) fn note_truncated(&self) {
        self.injected_truncations.fetch_add(1, Ordering::Relaxed);
        self.truncated.fetch_add(1, Ordering::Relaxed);
    }

    /// Replays a truncation count recorded in a crawl checkpoint, so a
    /// resumed run reports the same counters as the run that wrote it.
    pub(crate) fn note_truncated_bulk(&self, n: u64) {
        self.injected_truncations.fetch_add(n, Ordering::Relaxed);
        self.truncated.fetch_add(n, Ordering::Relaxed);
    }

    /// Whether the plan truncates this crawl record's HTML.
    pub(crate) fn truncates(&self, domain: &str) -> bool {
        self.faults.truncates(domain)
    }

    fn quarantine_record(&self, entry: QuarantineEntry) {
        let mut q = self.quarantine.lock();
        q.push(entry);
        if q.len() > self.quarantine_limit {
            self.overflowed.store(true, Ordering::SeqCst);
            self.stop.store(true, Ordering::SeqCst);
        }
    }

    fn record_failure(&self, key: &str, cause: &str) {
        let mut f = self.first_failure.lock();
        if f.is_none() {
            *f = Some((key.to_string(), cause.to_string()));
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Analyzes one job under supervision. `None` means the record was
    /// quarantined (or the executor is stopping).
    fn guarded_analyze(
        &self,
        stage: PipelineStage,
        extractor: &FeatureExtractor,
        job: &PageJob<'_>,
    ) -> Option<Arc<PageArtifact>> {
        let analyzer = extractor.analyzer();
        let fault = self.faults.decide_page(&job.key);
        if let Some(PageFault::Poison) = fault {
            // Forced degradation: skip the visual derivation entirely.
            // Bypasses the cache (a poisoned artifact must never be
            // served to an unpoisoned request and vice versa).
            let _quiet = QuietGuard::new();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                analyzer.analyze_forced_degraded(job.html)
            }));
            return match outcome {
                Ok(artifact) => {
                    self.injected_poisons.fetch_add(1, Ordering::Relaxed);
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    Some(artifact)
                }
                Err(payload) => {
                    let (cause, _) = payload_to_cause(payload.as_ref());
                    if self.fail_fast {
                        self.record_failure(&job.key, &cause);
                        return None;
                    }
                    self.quarantine_record(QuarantineEntry {
                        stage,
                        key: job.key.clone(),
                        cause,
                        attempts: 1,
                        injected: false,
                    });
                    None
                }
            };
        }
        let failing_attempts = match fault {
            Some(PageFault::Panic { failing_attempts }) => {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                failing_attempts
            }
            _ => 0,
        };
        let injected = failing_attempts > 0;
        for attempt in 0..=self.retry_budget {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            let _quiet = QuietGuard::new();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                if attempt < failing_attempts {
                    panic::panic_any(InjectedPanic);
                }
                analyzer.analyze(job.html)
            }));
            match outcome {
                Ok(artifact) => {
                    if attempt > 0 {
                        if injected {
                            self.recovered.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.recovered_natural.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if artifact.degraded {
                        self.degraded.fetch_add(1, Ordering::Relaxed);
                        self.degraded_natural.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(artifact);
                }
                Err(payload) => {
                    let (cause, was_injected) = payload_to_cause(payload.as_ref());
                    if self.fail_fast {
                        self.record_failure(&job.key, &cause);
                        return None;
                    }
                    if attempt == self.retry_budget {
                        self.quarantine_record(QuarantineEntry {
                            stage,
                            key: job.key.clone(),
                            cause,
                            attempts: attempt + 1,
                            injected: was_injected,
                        });
                        return None;
                    }
                }
            }
        }
        None
    }

    /// The supervised batch executor: parallel analysis followed by
    /// sequential embedding — both under per-record `catch_unwind`.
    /// `None` slots are quarantined records (or, once the stop flag is
    /// up, records nobody started).
    pub(crate) fn extract_vectors(
        &self,
        stage: PipelineStage,
        extractor: &FeatureExtractor,
        jobs: &[PageJob<'_>],
        threads: usize,
    ) -> Result<Vec<Option<SparseVec>>, PipelineErrorKind> {
        // Nothing unwinds out of the closure: every panic surface is
        // behind guarded_analyze's catch_unwind.
        let artifacts = par_map(jobs.len(), threads, ANALYZE_GRAIN, |i| {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            self.guarded_analyze(stage, extractor, &jobs[i])
        });
        self.check_stopped()?;

        // Sequential embedding: deterministic order, still isolated.
        let mut out: Vec<Option<SparseVec>> = Vec::with_capacity(jobs.len());
        for (artifact, job) in artifacts.into_iter().zip(jobs) {
            let Some(artifact) = artifact else {
                out.push(None);
                continue;
            };
            let _quiet = QuietGuard::new();
            let embedded = panic::catch_unwind(AssertUnwindSafe(|| {
                extractor.extract_from_artifact(&artifact)
            }));
            match embedded {
                Ok(v) => out.push(Some(v)),
                Err(payload) => {
                    let (cause, _) = payload_to_cause(payload.as_ref());
                    if self.fail_fast {
                        self.record_failure(&job.key, &cause);
                    } else {
                        self.quarantine_record(QuarantineEntry {
                            stage,
                            key: job.key.clone(),
                            cause: format!("embed: {cause}"),
                            attempts: 1,
                            injected: false,
                        });
                    }
                    out.push(None);
                }
            }
        }
        self.check_stopped()?;
        Ok(out)
    }

    fn check_stopped(&self) -> Result<(), PipelineErrorKind> {
        if self.overflowed.load(Ordering::SeqCst) {
            return Err(PipelineErrorKind::QuarantineOverflow {
                limit: self.quarantine_limit,
                quarantined: self.quarantine.lock().len(),
            });
        }
        if let Some((key, cause)) = self.first_failure.lock().clone() {
            return Err(PipelineErrorKind::StagePanic { key, cause });
        }
        Ok(())
    }

    /// Finalizes the report. The quarantine list is sorted by
    /// (stage, key) so its order never leaks worker scheduling.
    pub(crate) fn report(&self) -> SupervisionReport {
        let mut quarantined = self.quarantine.lock().clone();
        quarantined.sort_by(|a, b| a.stage.cmp(&b.stage).then_with(|| a.key.cmp(&b.key)));
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SupervisionReport {
            injected: FaultCounts {
                analyzer_panics: load(&self.injected_panics),
                poisoned_pages: load(&self.injected_poisons),
                truncated_records: load(&self.injected_truncations),
            },
            quarantined,
            recovered: load(&self.recovered),
            recovered_natural: load(&self.recovered_natural),
            degraded: load(&self.degraded),
            degraded_natural: load(&self.degraded_natural),
            truncated: load(&self.truncated),
            retries: load(&self.retries),
            resumed_stages: self.resumed.lock().clone(),
            checkpointed_stages: self.checkpointed.lock().clone(),
            invalidated_checkpoints: self.invalidated.lock().clone(),
            recovered_checkpoints: self.recovered_ckpts.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_squat::BrandRegistry;

    fn extractor() -> FeatureExtractor {
        FeatureExtractor::new(&BrandRegistry::with_size(5))
    }

    fn opts_with(faults: PipelineFaultPlan) -> RunOptions {
        RunOptions {
            faults,
            ..RunOptions::default()
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for s in PipelineStage::ALL {
            assert_eq!(PipelineStage::parse(s.name()), Some(s));
        }
        assert_eq!(PipelineStage::parse("bogus"), None);
    }

    #[test]
    fn error_display_carries_context() {
        let e = PipelineError {
            stage: PipelineStage::Train,
            kind: PipelineErrorKind::StagePanic {
                key: "feed:3".into(),
                cause: "boom".into(),
            },
            completed: vec![PipelineStage::Scan, PipelineStage::Crawl],
        };
        let s = e.to_string();
        assert!(s.contains("train"), "{s}");
        assert!(s.contains("feed:3"), "{s}");
        assert!(s.contains("scan, crawl"), "{s}");
        assert!(!e.is_interrupted());
    }

    #[test]
    fn persistent_panics_quarantine_and_reconcile() {
        let fx = extractor();
        let sup = Supervisor::new(&opts_with(
            PipelineFaultPlan::none().analyzer_panics(400).with_seed(3),
        ));
        let htmls: Vec<String> = (0..40)
            .map(|i| format!("<html><body><p>page {i}</p></body></html>"))
            .collect();
        let jobs: Vec<PageJob<'_>> = htmls
            .iter()
            .enumerate()
            .map(|(i, h)| PageJob {
                key: format!("test:{i}"),
                html: h,
            })
            .collect();
        let vectors = sup
            .extract_vectors(PipelineStage::Detect, &fx, &jobs, 4)
            .unwrap();
        let report = sup.report();
        assert!(report.injected.analyzer_panics > 0);
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(
            vectors.iter().filter(|v| v.is_none()).count(),
            report.quarantined.len()
        );
        // Persistent panics exhaust the retry budget: 1 retry each.
        assert_eq!(report.retries, report.quarantined.len() as u64);
        for q in &report.quarantined {
            assert!(q.injected);
            assert_eq!(q.attempts, 2);
            assert_eq!(q.cause, super::INJECTED_CAUSE);
        }
    }

    #[test]
    fn flaky_panics_recover_within_budget() {
        let fx = extractor();
        let sup = Supervisor::new(&opts_with(
            PipelineFaultPlan::none().flaky_panics(500).with_seed(9),
        ));
        let htmls: Vec<String> = (0..30)
            .map(|i| format!("<html><body><p>flaky {i}</p></body></html>"))
            .collect();
        let jobs: Vec<PageJob<'_>> = htmls
            .iter()
            .enumerate()
            .map(|(i, h)| PageJob {
                key: format!("t:{i}"),
                html: h,
            })
            .collect();
        let vectors = sup
            .extract_vectors(PipelineStage::Train, &fx, &jobs, 2)
            .unwrap();
        let report = sup.report();
        assert!(report.injected.analyzer_panics > 0);
        assert_eq!(report.recovered, report.injected.analyzer_panics);
        assert!(report.quarantined.is_empty());
        assert!(report.reconciles());
        assert!(vectors.iter().all(Option::is_some));
    }

    #[test]
    fn quarantine_is_identical_across_thread_counts() {
        let fx = extractor();
        let htmls: Vec<String> = (0..60)
            .map(|i| format!("<html><body><h1>d{i}</h1></body></html>"))
            .collect();
        let plan = PipelineFaultPlan::none()
            .analyzer_panics(300)
            .poisons(200)
            .with_seed(5);
        let mut baseline: Option<(Vec<QuarantineEntry>, Vec<Option<bool>>)> = None;
        for threads in [1, 4, 8] {
            let sup = Supervisor::new(&opts_with(plan));
            let jobs: Vec<PageJob<'_>> = htmls
                .iter()
                .enumerate()
                .map(|(i, h)| PageJob {
                    key: format!("k:{i}"),
                    html: h,
                })
                .collect();
            let vectors = sup
                .extract_vectors(PipelineStage::Detect, &fx, &jobs, threads)
                .unwrap();
            let report = sup.report();
            assert!(report.reconciles(), "threads={threads}: {report:?}");
            let shape: Vec<Option<bool>> =
                vectors.iter().map(|v| v.as_ref().map(|_| true)).collect();
            match &baseline {
                None => baseline = Some((report.quarantined.clone(), shape)),
                Some((q, s)) => {
                    assert_eq!(&report.quarantined, q, "threads={threads}");
                    assert_eq!(&shape, s, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn fail_fast_promotes_first_panic() {
        let fx = extractor();
        let sup = Supervisor::new(&RunOptions {
            faults: PipelineFaultPlan::none().analyzer_panics(1000),
            fail_fast: true,
            ..RunOptions::default()
        });
        let html = "<html><body>x</body></html>".to_string();
        let jobs = vec![PageJob {
            key: "k:0".into(),
            html: &html,
        }];
        let err = sup
            .extract_vectors(PipelineStage::Detect, &fx, &jobs, 1)
            .unwrap_err();
        assert!(matches!(err, PipelineErrorKind::StagePanic { .. }));
    }

    #[test]
    fn quarantine_overflow_aborts() {
        let fx = extractor();
        let sup = Supervisor::new(&RunOptions {
            faults: PipelineFaultPlan::none().analyzer_panics(1000),
            quarantine_limit: 3,
            ..RunOptions::default()
        });
        let htmls: Vec<String> = (0..20).map(|i| format!("<p>{i}</p>")).collect();
        let jobs: Vec<PageJob<'_>> = htmls
            .iter()
            .enumerate()
            .map(|(i, h)| PageJob {
                key: format!("k:{i}"),
                html: h,
            })
            .collect();
        let err = sup
            .extract_vectors(PipelineStage::Detect, &fx, &jobs, 2)
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineErrorKind::QuarantineOverflow { limit: 3, .. }
        ));
    }

    #[test]
    fn report_line_mentions_reconciliation() {
        let r = SupervisionReport::default();
        assert!(r.reconciles());
        assert!(r.report_line().contains("reconciled"));
    }
}
