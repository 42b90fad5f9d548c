//! The end-to-end SquatPhi pipeline (paper §3-§6).
//!
//! [`SquatPhi::try_run`] is the supervised entry point: every stage runs
//! under a `Supervisor` that isolates per-record analyzer panics,
//! degrades pages whose visual path fails, and (when a checkpoint
//! directory is configured) persists completed stage outputs so an
//! interrupted run resumes without recomputation.

use crate::artifact::{content_key, AnalysisSnapshot};
use crate::checkpoint::{CheckpointStore, Loaded};
use crate::config::SimConfig;
use crate::features::FeatureExtractor;
use crate::supervise::{
    PageJob, PipelineError, PipelineErrorKind, PipelineStage, RunOptions, SupervisionReport,
    Supervisor,
};
use crate::train::{self, EvalReport};
use squatphi_crawler::{crawl_all, CrawlConfig, CrawlRecord, CrawlStats, InProcessTransport};
use squatphi_dnsdb::{synth, try_scan_with_metrics, ScanMetrics, ScanOutcome};
use squatphi_durability::DurabilityStats;
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_ml::{Classifier, Dataset, RandomForest};
use squatphi_squat::{BrandRegistry, SquatDetector, SquatType};
use squatphi_web::{Device, SiteBehavior, WebWorld};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One page flagged by the classifier.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Squatting domain.
    pub domain: String,
    /// Impersonated brand.
    pub brand: usize,
    /// Squatting type.
    pub squat_type: SquatType,
    /// Device profile the page was captured with.
    pub device: Device,
    /// Classifier score.
    pub score: f64,
    /// Survived manual verification (i.e. is truly phishing).
    pub confirmed: bool,
}

/// Wall-clock time per pipeline stage (the four stages of
/// [`SquatPhi::try_run`]), aggregated from the stages' own
/// instrumentation where available.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Stage 1: snapshot synthesis, detector index build and the scan.
    pub scan: Duration,
    /// Stage 2: web-world build and crawl.
    pub crawl: Duration,
    /// Stage 3: ground truth, feature extraction and training.
    pub train: Duration,
    /// Stage 4: in-the-wild detection for both device profiles.
    pub detect: Duration,
}

impl StageTimings {
    /// End-to-end pipeline wall clock.
    pub fn total(&self) -> Duration {
        self.scan + self.crawl + self.train + self.detect
    }

    /// Publishes the stage wall clocks into a telemetry scope (canonically
    /// `timings`). All names carry the `_nanos` timing suffix, so the
    /// unified `--timings` rule strips them from default output.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        scope.set_u64("scan_nanos", nanos(self.scan));
        scope.set_u64("crawl_nanos", nanos(self.crawl));
        scope.set_u64("train_nanos", nanos(self.train));
        scope.set_u64("detect_nanos", nanos(self.detect));
        scope.set_u64("total_nanos", nanos(self.total()));
    }
}

/// Everything the pipeline produced — the inputs to every §6 table and
/// figure.
pub struct PipelineResult {
    /// The monitored brands.
    pub registry: BrandRegistry,
    /// The squatting-scan outcome over the DNS snapshot (Figures 2-4).
    pub scan: ScanOutcome,
    /// Per-worker scan instrumentation (throughput, probes, allocations
    /// avoided, dedupe collisions).
    pub scan_metrics: ScanMetrics,
    /// Wall-clock time per pipeline stage.
    pub timings: StageTimings,
    /// The synthetic web the crawl ran against (ground truth oracle).
    pub world: Arc<WebWorld>,
    /// Per-domain crawl records, snapshot 0 (Tables 2-4).
    pub crawl: Vec<CrawlRecord>,
    /// Crawl aggregate stats.
    pub crawl_stats: CrawlStats,
    /// The ground-truth feed (Figures 5-7, Table 5).
    pub feed: GroundTruthFeed,
    /// Training-set class balance: (positives, negatives) as assembled
    /// by `build_training_set` (§5.3's verified feed pages + sampled
    /// benign squats), counted after quarantine exclusions.
    pub train_split: (usize, usize),
    /// Classifier cross-validation report (Table 7, Figure 10).
    pub eval: EvalReport,
    /// The deployed model.
    pub model: RandomForest,
    /// The shared feature extractor.
    pub extractor: FeatureExtractor,
    /// Web-profile detections after manual verification (Table 8).
    pub web_detections: Vec<Detection>,
    /// Mobile-profile detections.
    pub mobile_detections: Vec<Detection>,
    /// Page-analysis counters (cache hits/misses, per-stage nanos) from
    /// the shared analyzer, snapshotted after the detect stage.
    pub analysis: AnalysisSnapshot,
    /// Fault / quarantine / checkpoint accounting for this run.
    pub supervision: SupervisionReport,
    /// Durable-store ledger for the run's checkpoint directory (zero
    /// when checkpointing is off). Like the timings, this is bookkeeping
    /// about *how* the run persisted, not *what* it computed — excluded
    /// from [`PipelineResult::fingerprint`].
    pub durability: DurabilityStats,
}

impl PipelineResult {
    /// Confirmed phishing domains (union of web and mobile).
    pub fn confirmed_domains(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .web_detections
            .iter()
            .chain(&self.mobile_detections)
            .filter(|d| d.confirmed)
            .map(|d| d.domain.as_str())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Confirmed detections for one device.
    pub fn confirmed(&self, device: Device) -> Vec<&Detection> {
        let set = match device {
            Device::Web => &self.web_detections,
            Device::Mobile => &self.mobile_detections,
        };
        set.iter().filter(|d| d.confirmed).collect()
    }

    /// Order-stable digest over every deterministic output field —
    /// scan matches, crawl captures, training split, evaluation metrics
    /// (as exact f64 bit patterns), the deployed model, detections, and
    /// the supervision counters. Wall-clock timings, analyzer nano
    /// counters and checkpoint bookkeeping are excluded, so two runs of
    /// the same config (resumed or not, any thread count) must agree.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, bytes: &[u8]) -> u64 {
            content_key(h, bytes)
        }
        fn mix_u64(h: u64, v: u64) -> u64 {
            mix(h, &v.to_le_bytes())
        }
        fn mix_str(h: u64, s: &str) -> u64 {
            mix(mix_u64(h, s.len() as u64), s.as_bytes())
        }
        let mut h = 0x5171_2018u64;
        h = mix_u64(h, self.scan.scanned as u64);
        h = mix_u64(h, self.scan.invalid as u64);
        for &c in &self.scan.by_type {
            h = mix_u64(h, c as u64);
        }
        for m in &self.scan.matches {
            h = mix_str(h, &m.domain.registrable());
            h = mix_u64(h, m.brand as u64);
            h = mix_str(h, m.squat_type.name());
            h = mix(h, &m.ip.octets());
        }
        for r in &self.crawl {
            h = mix_str(h, &r.domain);
            h = mix_u64(h, r.brand as u64);
            h = mix_str(h, r.squat_type.name());
            h = mix_u64(h, r.web_redirect as u64);
            h = mix_u64(h, r.mobile_redirect as u64);
            for cap in [&r.web, &r.mobile] {
                match cap {
                    None => h = mix_u64(h, 0),
                    Some(c) => {
                        h = mix_u64(h, 1);
                        h = mix_str(h, &c.final_host);
                        h = mix_str(h, &c.html);
                        for red in &c.redirects {
                            h = mix_str(h, red);
                        }
                    }
                }
            }
        }
        h = mix_u64(h, self.train_split.0 as u64);
        h = mix_u64(h, self.train_split.1 as u64);
        h = mix_u64(h, self.eval.train_shape.0 as u64);
        h = mix_u64(h, self.eval.train_shape.1 as u64);
        for m in &self.eval.models {
            h = mix_str(h, m.name);
            h = mix_u64(h, m.metrics.fpr.to_bits());
            h = mix_u64(h, m.metrics.fnr.to_bits());
            h = mix_u64(h, m.metrics.auc.to_bits());
            h = mix_u64(h, m.metrics.accuracy.to_bits());
            for (x, y) in &m.roc.points {
                h = mix_u64(h, x.to_bits());
                h = mix_u64(h, y.to_bits());
            }
        }
        h = mix_str(h, &self.model.encode());
        for set in [&self.web_detections, &self.mobile_detections] {
            h = mix_u64(h, set.len() as u64);
            for d in set {
                h = mix_str(h, &d.domain);
                h = mix_u64(h, d.brand as u64);
                h = mix_str(h, d.squat_type.name());
                h = mix_u64(h, d.score.to_bits());
                h = mix_u64(h, u64::from(d.confirmed));
            }
        }
        let s = &self.supervision;
        for v in [
            s.injected.analyzer_panics,
            s.injected.poisoned_pages,
            s.injected.truncated_records,
            s.recovered,
            s.recovered_natural,
            s.degraded,
            s.degraded_natural,
            s.truncated,
            s.retries,
        ] {
            h = mix_u64(h, v);
        }
        for q in &s.quarantined {
            h = mix_str(h, q.stage.name());
            h = mix_str(h, &q.key);
            h = mix_str(h, &q.cause);
            h = mix_u64(h, u64::from(q.attempts));
            h = mix_u64(h, u64::from(q.injected));
        }
        h
    }

    /// Exports every metrics surface of the run into one fresh telemetry
    /// registry: `scan.`, `crawl.` (with `crawl.transport.`), `analysis.`,
    /// `supervision.` and `timings.`. This is the registry the `repro`
    /// summary, the conformance harness and the bench writers read from.
    pub fn telemetry(&self) -> squatphi_telemetry::Registry {
        let reg = squatphi_telemetry::Registry::new();
        let scan = reg.scope("scan");
        self.scan.export(&scan);
        self.scan_metrics.export(&scan);
        self.crawl_stats.export(&reg.scope("crawl"));
        self.analysis.export(&reg.scope("analysis"));
        self.supervision.export(&reg.scope("supervision"));
        self.timings.export(&reg.scope("timings"));
        self.durability.export(&reg.scope("durability"));
        reg
    }

    /// Checks every pipeline conservation identity against the exported
    /// telemetry in one central pass; `Err` lists all violations.
    pub fn check_invariants(&self) -> Result<(), Vec<squatphi_telemetry::Violation>> {
        squatphi_telemetry::invariants::pipeline_invariants()
            .check_all(&self.telemetry().snapshot())
    }
}

/// The system façade.
pub struct SquatPhi;

fn fail(
    stage: PipelineStage,
    completed: &[PipelineStage],
    kind: PipelineErrorKind,
) -> PipelineError {
    PipelineError {
        stage,
        kind,
        completed: completed.to_vec(),
    }
}

impl SquatPhi {
    /// Runs the full pipeline under `config` with supervised stages.
    ///
    /// Per-record analyzer panics in the train/detect stages are caught,
    /// retried within `opts.retry_budget`, and quarantined
    /// deterministically; pages whose visual analysis fails degrade to a
    /// lexical+form feature vector instead of being dropped. With
    /// `opts.checkpoint_dir` set, completed scan/crawl/train outputs are
    /// persisted and — with `opts.resume` — replayed, producing a
    /// [`PipelineResult`] with an identical [`PipelineResult::fingerprint`].
    /// `opts.stop_after` interrupts after the named stage with
    /// [`PipelineErrorKind::Interrupted`] (a deterministic kill stand-in).
    pub fn try_run(config: &SimConfig, opts: &RunOptions) -> Result<PipelineResult, PipelineError> {
        let mut completed: Vec<PipelineStage> = Vec::new();
        if config.brands == 0 {
            return Err(fail(
                PipelineStage::Scan,
                &completed,
                PipelineErrorKind::Config("brands must be >= 1".into()),
            ));
        }
        if config.cv_folds < 2 {
            return Err(fail(
                PipelineStage::Train,
                &completed,
                PipelineErrorKind::Config("cv_folds must be >= 2".into()),
            ));
        }
        let supervisor = Supervisor::new(opts);
        let store = match &opts.checkpoint_dir {
            Some(dir) => Some(
                CheckpointStore::open(dir, config, &opts.faults, &opts.disk_faults).map_err(
                    |e| {
                        fail(
                            PipelineStage::Scan,
                            &completed,
                            PipelineErrorKind::Checkpoint(e),
                        )
                    },
                )?,
            ),
            None => None,
        };
        let ckpt_err = |stage: PipelineStage,
                        completed: &[PipelineStage],
                        e: crate::checkpoint::CheckpointError| {
            fail(stage, completed, PipelineErrorKind::Checkpoint(e))
        };
        let mut timings = StageTimings::default();
        let registry = BrandRegistry::with_size(config.brands);

        // Stage 1 — squatting detection over the DNS snapshot (§3.1).
        let stage = Instant::now();
        let (scan_outcome, scan_metrics) = {
            let mut resumed = None;
            if opts.resume {
                if let Some(store) = &store {
                    match store
                        .load_scan()
                        .map_err(|e| ckpt_err(PipelineStage::Scan, &completed, e))?
                    {
                        Loaded::Value(v) => {
                            supervisor.note_resumed(PipelineStage::Scan);
                            resumed = Some(v);
                        }
                        Loaded::Recovered(v, detail) => {
                            supervisor.note_resumed(PipelineStage::Scan);
                            supervisor.note_recovered_checkpoint(PipelineStage::Scan, detail);
                            resumed = Some(v);
                        }
                        Loaded::Stale => supervisor.note_invalidated(PipelineStage::Scan),
                        Loaded::Missing => {}
                    }
                }
            }
            match resumed {
                Some(v) => v,
                None => {
                    let (snapshot, _stats) = synth::generate(&config.snapshot, &registry);
                    let detector = SquatDetector::new(&registry);
                    // A worker panic surfaces as a structured StagePanic
                    // naming the failing shard instead of taking the
                    // process down (PR 5 supervision contract).
                    let out =
                        try_scan_with_metrics(&snapshot, &registry, &detector, config.threads)
                            .map_err(|e| {
                                fail(
                                    PipelineStage::Scan,
                                    &completed,
                                    PipelineErrorKind::StagePanic {
                                        key: format!("scan shard {}", e.shard),
                                        cause: e.cause,
                                    },
                                )
                            })?;
                    if let Some(store) = &store {
                        store
                            .save_scan(&out.0, &out.1)
                            .map_err(|e| ckpt_err(PipelineStage::Scan, &completed, e))?;
                        supervisor.note_checkpointed(PipelineStage::Scan);
                    }
                    out
                }
            }
        };
        timings.scan = stage.elapsed();
        completed.push(PipelineStage::Scan);
        if opts.stop_after == Some(PipelineStage::Scan) {
            return Err(fail(
                PipelineStage::Scan,
                &completed,
                PipelineErrorKind::Interrupted,
            ));
        }

        // Stage 2 — build the web world over the scan hits and crawl it
        // (§3.2). The world itself rebuilds deterministically from the
        // scan output, so only the crawl records are checkpointed.
        let stage = Instant::now();
        let squats: Vec<(String, usize, SquatType, std::net::Ipv4Addr)> = scan_outcome
            .matches
            .iter()
            .map(|m| (m.domain.registrable(), m.brand, m.squat_type, m.ip))
            .collect();
        let world = Arc::new(WebWorld::build(&squats, &registry, &config.world));
        let (crawl_records, crawl_stats) = {
            let mut resumed = None;
            if opts.resume {
                if let Some(store) = &store {
                    match store
                        .load_crawl()
                        .map_err(|e| ckpt_err(PipelineStage::Crawl, &completed, e))?
                    {
                        Loaded::Value((records, stats, truncated)) => {
                            supervisor.note_resumed(PipelineStage::Crawl);
                            // Replay the fault accounting of the run that
                            // wrote the checkpoint (the records are
                            // already truncated on disk).
                            supervisor.note_truncated_bulk(truncated);
                            resumed = Some((records, stats));
                        }
                        Loaded::Recovered((records, stats, truncated), detail) => {
                            supervisor.note_resumed(PipelineStage::Crawl);
                            supervisor.note_recovered_checkpoint(PipelineStage::Crawl, detail);
                            supervisor.note_truncated_bulk(truncated);
                            resumed = Some((records, stats));
                        }
                        Loaded::Stale => supervisor.note_invalidated(PipelineStage::Crawl),
                        Loaded::Missing => {}
                    }
                }
            }
            match resumed {
                Some(v) => v,
                None => {
                    let transport = InProcessTransport::new(world.clone());
                    let jobs: Vec<(String, usize, SquatType)> = squats
                        .iter()
                        .map(|(d, b, t, _)| (d.clone(), *b, *t))
                        .collect();
                    let crawl_cfg = CrawlConfig::builder()
                        .workers(config.threads.max(1))
                        .snapshot(0)
                        .build()
                        .map_err(|e| {
                            fail(
                                PipelineStage::Crawl,
                                &completed,
                                PipelineErrorKind::Config(e.to_string()),
                            )
                        })?;
                    let (mut records, mut stats) =
                        crawl_all(&jobs, &registry, &transport, &crawl_cfg);
                    let mut truncated = 0u64;
                    if !opts.faults.is_none() {
                        for r in &mut records {
                            if !supervisor.truncates(&r.domain) {
                                continue;
                            }
                            let mut cut_any = false;
                            for cap in [&mut r.web, &mut r.mobile] {
                                let Some(c) = cap else { continue };
                                if c.html.is_empty() {
                                    continue;
                                }
                                let mut cut = c.html.len() / 3;
                                while cut > 0 && !c.html.is_char_boundary(cut) {
                                    cut -= 1;
                                }
                                c.html.truncate(cut);
                                cut_any = true;
                            }
                            if cut_any {
                                supervisor.note_truncated();
                                truncated += 1;
                            }
                        }
                        if truncated > 0 {
                            // Re-aggregate over the mutated records so a
                            // resumed run (which recomputes stats from
                            // the checkpointed records) sees the same
                            // numbers as this one.
                            let transport_counters = stats.transport.clone();
                            stats = CrawlStats::from_records(&records);
                            stats.transport = transport_counters;
                        }
                    }
                    if let Some(store) = &store {
                        store
                            .save_crawl(&records, &stats, truncated)
                            .map_err(|e| ckpt_err(PipelineStage::Crawl, &completed, e))?;
                        supervisor.note_checkpointed(PipelineStage::Crawl);
                    }
                    (records, stats)
                }
            }
        };
        timings.crawl = stage.elapsed();
        completed.push(PipelineStage::Crawl);
        if opts.stop_after == Some(PipelineStage::Crawl) {
            return Err(fail(
                PipelineStage::Crawl,
                &completed,
                PipelineErrorKind::Interrupted,
            ));
        }

        // Stage 3 — ground truth (§4.1) and classifier training (§5).
        let stage = Instant::now();
        let feed = GroundTruthFeed::generate(
            &registry,
            &FeedConfig {
                total_urls: config.feed.total_urls,
                seed: config.feed.seed,
            },
        );
        let extractor = FeatureExtractor::new(&registry);
        let (train_split, eval, model) = {
            let mut resumed = None;
            if opts.resume {
                if let Some(store) = &store {
                    match store
                        .load_train()
                        .map_err(|e| ckpt_err(PipelineStage::Train, &completed, e))?
                    {
                        Loaded::Value(v) => {
                            supervisor.note_resumed(PipelineStage::Train);
                            resumed = Some(v);
                        }
                        Loaded::Recovered(v, detail) => {
                            supervisor.note_resumed(PipelineStage::Train);
                            supervisor.note_recovered_checkpoint(PipelineStage::Train, detail);
                            resumed = Some(v);
                        }
                        Loaded::Stale => supervisor.note_invalidated(PipelineStage::Train),
                        Loaded::Missing => {}
                    }
                }
            }
            match resumed {
                Some(v) => v,
                None => {
                    let (dataset, split) = build_training_set(
                        &supervisor,
                        &extractor,
                        &feed,
                        &crawl_records,
                        &world,
                        &registry,
                        config,
                    )
                    .map_err(|kind| fail(PipelineStage::Train, &completed, kind))?;
                    if split.0 == 0 || split.1 == 0 {
                        return Err(fail(
                            PipelineStage::Train,
                            &completed,
                            PipelineErrorKind::StageInvariant(format!(
                                "degenerate training split after quarantine: \
                                 {} positives, {} negatives",
                                split.0, split.1
                            )),
                        ));
                    }
                    let eval =
                        train::evaluate(&dataset, config.cv_folds, config.seed, config.threads);
                    let model = train::fit_final_model(&dataset, config.seed);
                    if let Some(store) = &store {
                        store
                            .save_train(split, &eval, &model)
                            .map_err(|e| ckpt_err(PipelineStage::Train, &completed, e))?;
                        supervisor.note_checkpointed(PipelineStage::Train);
                    }
                    (split, eval, model)
                }
            }
        };
        timings.train = stage.elapsed();
        completed.push(PipelineStage::Train);
        if opts.stop_after == Some(PipelineStage::Train) {
            return Err(fail(
                PipelineStage::Train,
                &completed,
                PipelineErrorKind::Interrupted,
            ));
        }

        // Stage 4 — in-the-wild detection (§6.1) with manual-verification
        // simulation. Detections are cheap to recompute and depend on the
        // checkpointed model, so this stage is never checkpointed.
        let stage = Instant::now();
        let web_detections = detect_device(
            &supervisor,
            &crawl_records,
            &extractor,
            &model,
            &world,
            Device::Web,
            config.threads,
        )
        .map_err(|kind| fail(PipelineStage::Detect, &completed, kind))?;
        let mobile_detections = detect_device(
            &supervisor,
            &crawl_records,
            &extractor,
            &model,
            &world,
            Device::Mobile,
            config.threads,
        )
        .map_err(|kind| fail(PipelineStage::Detect, &completed, kind))?;
        timings.detect = stage.elapsed();
        completed.push(PipelineStage::Detect);
        if opts.stop_after == Some(PipelineStage::Detect) {
            return Err(fail(
                PipelineStage::Detect,
                &completed,
                PipelineErrorKind::Interrupted,
            ));
        }
        let analysis = extractor.analyzer().metrics();
        let supervision = supervisor.report();
        let durability = store
            .as_ref()
            .map(CheckpointStore::stats)
            .unwrap_or_default();

        Ok(PipelineResult {
            registry,
            scan: scan_outcome,
            scan_metrics,
            timings,
            world,
            crawl: crawl_records,
            crawl_stats,
            feed,
            train_split,
            eval,
            model,
            extractor,
            web_detections,
            mobile_detections,
            analysis,
            supervision,
            durability,
        })
    }
}

/// Assembles the training set: the top-8 manually-verified feed pages
/// (positives = still-phishing, negatives = taken-down/benign) plus
/// `sampled_benign` easy-to-confuse live squatting pages (§5.3's 1,565).
///
/// Extraction runs under the supervisor: quarantined pages yield `None`
/// vectors and are excluded from both the dataset and the returned
/// (positives, negatives) split, so `train_split` always matches what
/// training actually saw.
fn build_training_set(
    supervisor: &Supervisor,
    extractor: &FeatureExtractor,
    feed: &GroundTruthFeed,
    crawl: &[CrawlRecord],
    world: &WebWorld,
    registry: &BrandRegistry,
    config: &SimConfig,
) -> Result<(Dataset, (usize, usize)), PipelineErrorKind> {
    let mut jobs: Vec<PageJob<'_>> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    // The feed carries brand ids from the pipeline's own registry, so the
    // `top8` lookup uses it directly (previously this rebuilt an identical
    // registry per training-set assembly).
    let top8 = feed.top8(registry);
    for (i, e) in top8.iter().enumerate() {
        jobs.push(PageJob {
            key: format!("train:feed:{i}"),
            html: e.html.as_str(),
        });
        labels.push(e.still_phishing);
    }
    // Sampled benign squatting pages: live, not phishing per the world's
    // ground truth (the paper manually verified these).
    let mut sampled = 0usize;
    for r in crawl {
        if sampled >= config.sampled_benign {
            break;
        }
        let Some(web) = &r.web else { continue };
        if web.html.is_empty() {
            continue;
        }
        let is_phishing = world
            .site(&r.domain)
            .map(|s| s.behavior.is_phishing())
            .unwrap_or(false);
        if !is_phishing {
            jobs.push(PageJob {
                key: format!("train:benign:{}", r.domain),
                html: web.html.as_str(),
            });
            labels.push(false);
            sampled += 1;
        }
    }
    let vectors =
        supervisor.extract_vectors(PipelineStage::Train, extractor, &jobs, config.threads)?;
    let mut dataset = Dataset::new(extractor.dim());
    let (mut pos, mut neg) = (0usize, 0usize);
    for (v, &label) in vectors.into_iter().zip(&labels) {
        let Some(v) = v else { continue };
        if label {
            pos += 1;
        } else {
            neg += 1;
        }
        dataset.push(v, label);
    }
    Ok((dataset, (pos, neg)))
}

/// Classifies every crawled page of one device profile and simulates the
/// manual verification pass (§6.1: "we manually examined each of the
/// detected phishing pages" — our oracle is the world's ground truth).
///
/// Quarantined pages are skipped; a candidates/vectors length mismatch is
/// a hard [`PipelineErrorKind::StageInvariant`] rather than the silent
/// truncation a bare `zip` would allow.
fn detect_device(
    supervisor: &Supervisor,
    crawl: &[CrawlRecord],
    extractor: &FeatureExtractor,
    model: &RandomForest,
    world: &WebWorld,
    device: Device,
    threads: usize,
) -> Result<Vec<Detection>, PipelineErrorKind> {
    // Collect candidate pages.
    let mut candidates: Vec<(&CrawlRecord, &str)> = Vec::new();
    for r in crawl {
        let cap = match device {
            Device::Web => r.web.as_ref(),
            Device::Mobile => r.mobile.as_ref(),
        };
        if let Some(cap) = cap {
            // Pages that redirected off-domain are the destination's
            // content, not the squat's — the paper still records them; we
            // classify whatever HTML was captured.
            if !cap.html.is_empty() {
                candidates.push((r, cap.html.as_str()));
            }
        }
    }
    let tag = match device {
        Device::Web => "web",
        Device::Mobile => "mobile",
    };
    let jobs: Vec<PageJob<'_>> = candidates
        .iter()
        .map(|(r, h)| PageJob {
            key: format!("detect:{tag}:{}", r.domain),
            html: h,
        })
        .collect();
    let vectors = supervisor.extract_vectors(PipelineStage::Detect, extractor, &jobs, threads)?;
    if vectors.len() != candidates.len() {
        return Err(PipelineErrorKind::StageInvariant(format!(
            "detect/{tag}: {} candidate pages but {} feature vectors",
            candidates.len(),
            vectors.len(),
        )));
    }
    let mut out = Vec::new();
    for ((record, _), v) in candidates.iter().zip(vectors) {
        let Some(v) = v else { continue };
        let score = model.score(&v);
        if score >= 0.5 {
            // Manual verification: flag survives iff the page is truly a
            // phishing page serving this device at snapshot 0.
            let confirmed = world
                .site(&record.domain)
                .map(|s| match &s.behavior {
                    SiteBehavior::Phishing(p) => {
                        p.lifetime.phishing_live(0)
                            && !matches!(
                                (p.cloaking, device),
                                (squatphi_web::Cloaking::MobileOnly, Device::Web)
                                    | (squatphi_web::Cloaking::WebOnly, Device::Mobile)
                            )
                    }
                    _ => false,
                })
                .unwrap_or(false);
            out.push(Detection {
                domain: record.domain.clone(),
                brand: record.brand,
                squat_type: record.squat_type,
                device,
                score,
                confirmed,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // One shared tiny run: the pipeline is the expensive object, so the
    // integration-style assertions (here and in `analysis`) share it.
    pub(crate) fn run() -> &'static PipelineResult {
        use std::sync::OnceLock;
        static RESULT: OnceLock<PipelineResult> = OnceLock::new();
        RESULT.get_or_init(|| {
            SquatPhi::try_run(&SimConfig::tiny(), &RunOptions::default())
                .expect("tiny pipeline runs clean")
        })
    }

    #[test]
    fn pipeline_invariants_hold_centrally() {
        let r = run();
        if let Err(violations) = r.check_invariants() {
            for v in &violations {
                eprintln!("{v}");
            }
            panic!("{} invariant violations", violations.len());
        }
        // The exported registry carries every stage scope.
        let snap = r.telemetry().snapshot();
        for name in [
            "scan.matches",
            "crawl.web_live",
            "crawl.transport.attempts",
            "analysis.pages",
            "supervision.retries",
            "timings.total_nanos",
        ] {
            assert!(snap.get_u64(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn scan_finds_squatting_domains() {
        let r = run();
        assert!(
            r.scan.total_matches() > 400,
            "only {} matches",
            r.scan.total_matches()
        );
        assert!(r.scan.count(SquatType::Combo) > r.scan.count(SquatType::Homograph));
    }

    #[test]
    fn stage_timings_and_scan_metrics_populated() {
        let r = run();
        assert!(r.timings.scan > Duration::ZERO);
        assert!(r.timings.total() >= r.timings.scan);
        assert_eq!(r.scan_metrics.records(), r.scan.scanned);
        assert_eq!(r.scan_metrics.invalid(), r.scan.invalid);
        assert!(r.scan_metrics.probes() > 0);
        assert!(r.scan_metrics.allocations_avoided() > 0);
    }

    #[test]
    fn analysis_metrics_reconcile_and_split_carried() {
        let r = run();
        let m = &r.analysis;
        assert!(m.pages > 0, "pipeline analyzed no pages");
        assert!(m.reconciles(), "pages {} != hits+misses", m.pages);
        // Web + mobile detect passes share the cache, and uncloaked
        // template sites serve byte-identical captures — hits must occur.
        assert!(m.cache_hits > 0, "device passes never hit the cache");
        assert!(m.stage_nanos() > 0);
        // The training split matches what training actually saw.
        let (pos, neg) = r.train_split;
        assert_eq!((pos, neg), r.eval.train_shape);
        assert!(pos > 0 && neg > 0, "degenerate split ({pos}, {neg})");
    }

    #[test]
    fn unfaulted_run_reports_clean_supervision() {
        let r = run();
        let s = &r.supervision;
        assert!(s.injected.total() == 0, "default run injected faults");
        assert!(s.quarantined.is_empty(), "default run quarantined pages");
        assert_eq!(s.degraded, s.degraded_natural);
        assert!(s.reconciles(), "clean run must reconcile");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let r = run();
        assert_eq!(r.fingerprint(), r.fingerprint());
        assert_ne!(r.fingerprint(), 0);
    }

    #[test]
    fn crawl_covers_scan() {
        let r = run();
        assert_eq!(r.crawl.len(), r.scan.total_matches());
        assert!(r.crawl_stats.web_live > 0);
    }

    #[test]
    fn classifier_quality() {
        let r = run();
        let rf = r
            .eval
            .models
            .iter()
            .find(|m| m.name == "RandomForest")
            .unwrap();
        assert!(rf.metrics.auc > 0.85, "RF AUC {}", rf.metrics.auc);
        assert!(rf.metrics.fpr < 0.15, "RF FPR {}", rf.metrics.fpr);
    }

    #[test]
    fn detections_exist_and_confirmed_subset() {
        let r = run();
        assert!(!r.web_detections.is_empty() || !r.mobile_detections.is_empty());
        let confirmed = r.confirmed_domains().len();
        let flagged: std::collections::HashSet<&str> = r
            .web_detections
            .iter()
            .chain(&r.mobile_detections)
            .map(|d| d.domain.as_str())
            .collect();
        assert!(confirmed <= flagged.len());
        assert!(confirmed > 0, "no confirmed phishing at all");
    }

    #[test]
    fn confirmed_detections_match_world_truth() {
        let r = run();
        for d in r.confirmed(Device::Web) {
            let site = r.world.site(&d.domain).expect("site exists");
            assert!(
                site.behavior.is_phishing(),
                "{} confirmed but not phishing",
                d.domain
            );
        }
    }

    #[test]
    fn detection_recall_reasonable() {
        let r = run();
        // How many live, uncloaked phishing pages did the classifier+
        // verification pipeline recover?
        let mut live_phish = 0usize;
        for s in r.world.sites() {
            if let SiteBehavior::Phishing(p) = &s.behavior {
                if p.lifetime.phishing_live(0) {
                    live_phish += 1;
                }
            }
        }
        let confirmed = r.confirmed_domains().len();
        assert!(
            confirmed * 2 >= live_phish,
            "recovered {confirmed} of {live_phish} live phishing domains"
        );
    }

    #[test]
    fn stop_after_interrupts_with_completed_stages() {
        let opts = RunOptions {
            stop_after: Some(PipelineStage::Scan),
            ..RunOptions::default()
        };
        let Err(err) = SquatPhi::try_run(&SimConfig::tiny(), &opts) else {
            panic!("stop_after scan did not interrupt");
        };
        assert!(err.is_interrupted());
        assert_eq!(err.stage, PipelineStage::Scan);
        assert_eq!(err.completed, vec![PipelineStage::Scan]);
    }

    #[test]
    fn invalid_config_is_a_structured_error() {
        let mut cfg = SimConfig::tiny();
        cfg.cv_folds = 1;
        let Err(err) = SquatPhi::try_run(&cfg, &RunOptions::default()) else {
            panic!("cv_folds = 1 was accepted");
        };
        assert!(matches!(err.kind, PipelineErrorKind::Config(_)));
        assert!(err.completed.is_empty());
    }
}
