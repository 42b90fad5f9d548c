//! Stage checkpointing: crash-safe persistence of scan/crawl/train
//! outputs so `--resume` replays completed stages from disk with
//! byte-identical final output.
//!
//! Persistence routes through [`squatphi_durability::DurableStore`]: one
//! generational, checksummed state per stage (`scan.g<N>.ckpt`,
//! `crawl.g<N>.ckpt`, `train.g<N>.ckpt`) in the `--checkpoint-dir`, with
//! the latest two generations kept. The store is bound to a
//! `config_hash` — a seeded content hash over the canonical
//! [`SimConfig`] *and* the fault plan (worker threads, the
//! analysis-cache toggle and the *disk*-fault plan are excluded: all
//! output-neutral) — so a checkpoint written under another config
//! classifies as **stale** and is silently recomputed (surfaced in the
//! supervision report's `invalidated_checkpoints`); resuming under a
//! changed config can never splice incompatible stage outputs together.
//!
//! Damage is classified, never papered over: a corrupt or torn newest
//! generation falls back to the previous one ([`Loaded::Recovered`],
//! surfaced in the supervision report), and a store whose every
//! generation is damaged is a structured
//! [`CheckpointError::Unrecoverable`] — state that was durably written
//! and then lost must not silently recompute. Bodies are the hand-rolled
//! JSON codecs below; floats round-trip losslessly as `f64::to_bits`
//! integers, which is what makes resumed runs *byte-identical* rather
//! than merely close.
//!
//! The world, feed and feature extractor are deliberately **not**
//! checkpointed: they rebuild deterministically from the config, and the
//! crawl/train checkpoints capture everything downstream stages consume.

use crate::artifact::content_key;
use crate::config::SimConfig;
use crate::fault::PipelineFaultPlan;
use crate::supervise::PipelineStage;
use crate::train::{EvalReport, ModelEval};
use squatphi_crawler::{CrawlRecord, CrawlStats, PageCapture, RedirectClass, TransportSnapshot};
use squatphi_dnsdb::{ScanMetrics, ScanOutcome, SquatRecord, WorkerMetrics};
use squatphi_domain::DomainName;
use squatphi_durability::{
    render_classes, DiskFaultPlan, DurabilityStats, DurableStore, FaultVfs, LoadOutcome, RealVfs,
    StoreError, Vfs,
};
use squatphi_ml::{Metrics, RandomForest, RocCurve};
use squatphi_squat::SquatType;
use squatphi_telemetry::escape;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Checkpoint format version; bumped on any codec change so old files
/// invalidate instead of mis-decoding.
const VERSION: u64 = 2;

/// Seed of the config-hash content key.
const HASH_SEED: u64 = 0xc4ec_4b01;

/// Checkpoint persistence failure. Stale checkpoints are recomputed, and
/// damage with a surviving older generation is recovered — but a store
/// whose every generation is damaged is a structured error, never a
/// silent recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint directory failed.
    Io {
        /// Offending path.
        path: String,
        /// Stringified OS error.
        message: String,
    },
    /// Every on-disk generation of a checkpoint is damaged: state that
    /// was durably written has been lost, and resuming from it would
    /// silently recompute over the damage.
    Unrecoverable {
        /// The checkpoint name (stage name or `watch`).
        name: String,
        /// The checkpoint directory.
        dir: String,
        /// Per-generation damage classification, newest first
        /// (e.g. `g4 torn, g3 corrupt_body`).
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            CheckpointError::Unrecoverable { name, dir, detail } => write!(
                f,
                "checkpoint {name:?} in {dir} is unrecoverable ({detail}); \
                 delete its generation files or rerun without --resume to recompute"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Outcome of a checkpoint read.
pub(crate) enum Loaded<T> {
    /// No checkpoint on disk (or `--resume` not requested).
    Missing,
    /// A checkpoint exists but was written under a different config or
    /// format version; the stage recomputes and overwrites it.
    Stale,
    /// The newest generation verified and decoded.
    Value(T),
    /// The newest generation(s) were damaged; an older one verified. The
    /// string is the skipped-damage classification, newest first.
    Recovered(T, String),
}

/// Maps a store-level failure into the checkpoint error taxonomy.
pub(crate) fn store_err(e: StoreError) -> CheckpointError {
    match e {
        StoreError::Io { path, message } => CheckpointError::Io { path, message },
    }
}

/// The write path every durable state in the workspace shares: the real
/// filesystem, or the same wrapped in a seeded [`FaultVfs`] when a
/// disk-fault plan is active.
pub(crate) fn vfs_for(disk_faults: &DiskFaultPlan) -> Arc<dyn Vfs> {
    if disk_faults.is_none() {
        Arc::new(RealVfs)
    } else {
        Arc::new(FaultVfs::new(Arc::new(RealVfs), *disk_faults))
    }
}

/// Canonical config hash binding checkpoints to the run that wrote them.
pub(crate) fn config_hash(config: &SimConfig, faults: &PipelineFaultPlan) -> u64 {
    let canon = format!(
        "v{VERSION}|snap:{},{},{},{}|world:{},{},{},{},{},{},{}|feed:{},{}|brands:{}|benign:{}|cv:{}|seed:{}|faults:{}",
        config.snapshot.benign_records,
        config.snapshot.squatting_records,
        config.snapshot.subdomain_fraction.to_bits(),
        config.snapshot.seed,
        config.world.live_fraction.to_bits(),
        config.world.redirect_original.to_bits(),
        config.world.redirect_market.to_bits(),
        config.world.redirect_other.to_bits(),
        config.world.phishing_domains,
        config.world.confusing_fraction.to_bits(),
        config.world.seed,
        config.feed.total_urls,
        config.feed.seed,
        config.brands,
        config.sampled_benign,
        config.cv_folds,
        config.seed,
        faults.canonical(),
    );
    content_key(HASH_SEED, canon.as_bytes())
}

/// One run's checkpoint directory, bound to its config hash. A thin
/// stage-codec layer over the workspace-wide [`DurableStore`]: the store
/// owns atomicity, checksums, generations and damage classification;
/// this type owns only what a stage body *means*.
pub(crate) struct CheckpointStore {
    store: DurableStore,
    hash: u64,
}

impl CheckpointStore {
    pub(crate) fn open(
        dir: &Path,
        config: &SimConfig,
        faults: &PipelineFaultPlan,
        disk_faults: &DiskFaultPlan,
    ) -> Result<Self, CheckpointError> {
        let hash = config_hash(config, faults);
        let store = DurableStore::open(dir, hash, vfs_for(disk_faults)).map_err(store_err)?;
        Ok(CheckpointStore { store, hash })
    }

    /// The durable-state ledger for this run's checkpoint directory.
    pub(crate) fn stats(&self) -> DurabilityStats {
        self.store.stats()
    }

    /// Durably commits one stage body as the next generation.
    fn save(&self, stage: PipelineStage, body: &str) -> Result<(), CheckpointError> {
        self.store
            .save(stage.name(), body)
            .map(|_generation| ())
            .map_err(store_err)
    }

    /// Loads the newest verifiable generation of a stage, decoding the
    /// JSON body with `decode` (shape failures classify as corrupt and
    /// fall back to the previous generation).
    fn load_stage<T>(
        &self,
        stage: PipelineStage,
        decode: impl Fn(&json::Value) -> Option<T>,
    ) -> Result<Loaded<T>, CheckpointError> {
        let outcome = self
            .store
            .load_with(stage.name(), |body| {
                json::parse(body).ok().and_then(|v| decode(&v))
            })
            .map_err(store_err)?;
        Ok(match outcome {
            LoadOutcome::Missing => Loaded::Missing,
            LoadOutcome::Stale { .. } => Loaded::Stale,
            LoadOutcome::Valid(v) => Loaded::Value(v),
            LoadOutcome::Recovered { value, skipped, .. } => {
                Loaded::Recovered(value, render_classes(&skipped))
            }
            LoadOutcome::Unrecoverable { classes } => {
                return Err(CheckpointError::Unrecoverable {
                    name: stage.name().to_string(),
                    dir: self.store.dir().display().to_string(),
                    detail: render_classes(&classes),
                })
            }
        })
    }

    /// Informational body header. Freshness is enforced by the durable
    /// store's own config binding (the config hash doubles as the store
    /// config, and `VERSION` is folded into it), so these fields exist
    /// for humans inspecting a checkpoint, not for validation.
    fn header(&self, stage: PipelineStage) -> String {
        format!(
            "\"version\": {VERSION},\n\"config_hash\": {},\n\"stage\": \"{}\"",
            self.hash,
            stage.name()
        )
    }

    // -- scan ---------------------------------------------------------------

    pub(crate) fn save_scan(
        &self,
        outcome: &ScanOutcome,
        metrics: &ScanMetrics,
    ) -> Result<(), CheckpointError> {
        let matches = outcome
            .matches
            .iter()
            .map(|m| {
                let o = m.ip.octets();
                format!(
                    "{{\"domain\": \"{}\", \"ip\": [{}, {}, {}, {}], \"brand\": {}, \"type\": \"{}\"}}",
                    escape(m.domain.as_str()),
                    o[0],
                    o[1],
                    o[2],
                    o[3],
                    m.brand,
                    m.squat_type.name()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let workers = metrics
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"records\": {}, \"invalid\": {}, \"blocks\": {}, \"probes\": {}, \"deep_probes\": {}, \"allocations_avoided\": {}, \"elapsed_nanos\": {}}}",
                    w.records,
                    w.invalid,
                    w.blocks,
                    w.probes,
                    w.deep_probes,
                    w.allocations_avoided,
                    w.elapsed.as_nanos() as u64
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let body = format!(
            "{{\n{},\n\"scanned\": {},\n\"invalid\": {},\n\"by_type\": [{}],\n\"by_brand\": [{}],\n\"matches\": [\n{}\n],\n\"metrics\": {{\"requested_workers\": {}, \"dedupe_collisions\": {}, \"wall_nanos\": {}, \"workers\": [\n{}\n]}}\n}}\n",
            self.header(PipelineStage::Scan),
            outcome.scanned,
            outcome.invalid,
            join_usize(&outcome.by_type),
            join_usize(&outcome.by_brand),
            matches,
            metrics.requested_workers,
            metrics.dedupe_collisions,
            metrics.wall.as_nanos() as u64,
            workers,
        );
        self.save(PipelineStage::Scan, &body)
    }

    pub(crate) fn load_scan(&self) -> Result<Loaded<(ScanOutcome, ScanMetrics)>, CheckpointError> {
        self.load_stage(PipelineStage::Scan, decode_scan)
    }

    // -- crawl --------------------------------------------------------------

    pub(crate) fn save_crawl(
        &self,
        records: &[CrawlRecord],
        stats: &CrawlStats,
        truncated: u64,
    ) -> Result<(), CheckpointError> {
        let t = &stats.transport;
        let arr4 = |a: &[u64; 4]| a.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let transport = format!(
            "{{\"attempts\": {}, \"successes\": {}, \"retries\": {}, \"backoff_ns\": {}, \"errors\": [{}], \"injected\": [{}], \"breaker_trips\": {}, \"breaker_short_circuits\": {}, \"fetch_deadline_hits\": {}, \"crawl_deadline_hits\": {}}}",
            t.attempts,
            t.successes,
            t.retries,
            t.backoff_ns,
            arr4(&t.errors),
            arr4(&t.injected),
            t.breaker_trips,
            t.breaker_short_circuits,
            t.fetch_deadline_hits,
            t.crawl_deadline_hits,
        );
        let capture = |c: &Option<PageCapture>| match c {
            None => "null".to_string(),
            Some(p) => format!(
                "{{\"final_host\": \"{}\", \"html\": \"{}\", \"redirects\": [{}]}}",
                escape(&p.final_host),
                escape(&p.html),
                p.redirects
                    .iter()
                    .map(|r| format!("\"{}\"", escape(r)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        let records_json = records
            .iter()
            .map(|r| {
                format!(
                    "{{\"domain\": \"{}\", \"brand\": {}, \"type\": \"{}\", \"web\": {}, \"mobile\": {}, \"web_redirect\": \"{}\", \"mobile_redirect\": \"{}\"}}",
                    escape(&r.domain),
                    r.brand,
                    r.squat_type.name(),
                    capture(&r.web),
                    capture(&r.mobile),
                    redirect_name(r.web_redirect),
                    redirect_name(r.mobile_redirect),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let body = format!(
            "{{\n{},\n\"truncated\": {},\n\"transport\": {},\n\"records\": [\n{}\n]\n}}\n",
            self.header(PipelineStage::Crawl),
            truncated,
            transport,
            records_json,
        );
        self.save(PipelineStage::Crawl, &body)
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn load_crawl(
        &self,
    ) -> Result<Loaded<(Vec<CrawlRecord>, CrawlStats, u64)>, CheckpointError> {
        self.load_stage(PipelineStage::Crawl, decode_crawl)
    }

    // -- train --------------------------------------------------------------

    pub(crate) fn save_train(
        &self,
        split: (usize, usize),
        eval: &EvalReport,
        model: &RandomForest,
    ) -> Result<(), CheckpointError> {
        let models = eval
            .models
            .iter()
            .map(|m| {
                let roc = m
                    .roc
                    .points
                    .iter()
                    .map(|(x, y)| format!("[{}, {}]", x.to_bits(), y.to_bits()))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"name\": \"{}\", \"fpr\": {}, \"fnr\": {}, \"auc\": {}, \"accuracy\": {}, \"roc\": [{}]}}",
                    m.name,
                    m.metrics.fpr.to_bits(),
                    m.metrics.fnr.to_bits(),
                    m.metrics.auc.to_bits(),
                    m.metrics.accuracy.to_bits(),
                    roc,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let body = format!(
            "{{\n{},\n\"train_split\": [{}, {}],\n\"train_shape\": [{}, {}],\n\"models\": [\n{}\n],\n\"model\": \"{}\"\n}}\n",
            self.header(PipelineStage::Train),
            split.0,
            split.1,
            eval.train_shape.0,
            eval.train_shape.1,
            models,
            escape(&model.encode()),
        );
        self.save(PipelineStage::Train, &body)
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn load_train(
        &self,
    ) -> Result<Loaded<((usize, usize), EvalReport, RandomForest)>, CheckpointError> {
        self.load_stage(PipelineStage::Train, decode_train)
    }
}

fn join_usize(a: &[usize]) -> String {
    a.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

fn redirect_name(r: RedirectClass) -> &'static str {
    match r {
        RedirectClass::None => "None",
        RedirectClass::Original => "Original",
        RedirectClass::Market => "Market",
        RedirectClass::Other => "Other",
    }
}

fn parse_redirect(s: &str) -> Option<RedirectClass> {
    Some(match s {
        "None" => RedirectClass::None,
        "Original" => RedirectClass::Original,
        "Market" => RedirectClass::Market,
        "Other" => RedirectClass::Other,
        _ => return None,
    })
}

pub(crate) fn parse_squat_type(s: &str) -> Option<SquatType> {
    SquatType::ALL.into_iter().find(|t| t.name() == s)
}

// ---------------------------------------------------------------------------
// Decoders (shape failures → None → Loaded::Stale)
// ---------------------------------------------------------------------------

fn decode_scan(v: &json::Value) -> Option<(ScanOutcome, ScanMetrics)> {
    let scanned = v.get("scanned")?.as_usize()?;
    let invalid = v.get("invalid")?.as_usize()?;
    let by_type_vec: Vec<usize> = v
        .get("by_type")?
        .as_arr()?
        .iter()
        .map(json::Value::as_usize)
        .collect::<Option<_>>()?;
    let by_type: [usize; 5] = by_type_vec.try_into().ok()?;
    let by_brand: Vec<usize> = v
        .get("by_brand")?
        .as_arr()?
        .iter()
        .map(json::Value::as_usize)
        .collect::<Option<_>>()?;
    let mut matches = Vec::new();
    for m in v.get("matches")?.as_arr()? {
        let domain = DomainName::parse(m.get("domain")?.as_str()?).ok()?;
        let ip: Vec<u64> = m
            .get("ip")?
            .as_arr()?
            .iter()
            .map(json::Value::as_u64)
            .collect::<Option<_>>()?;
        let [a, b, c, d]: [u64; 4] = ip.try_into().ok()?;
        matches.push(SquatRecord {
            domain,
            ip: std::net::Ipv4Addr::new(
                u8::try_from(a).ok()?,
                u8::try_from(b).ok()?,
                u8::try_from(c).ok()?,
                u8::try_from(d).ok()?,
            ),
            brand: m.get("brand")?.as_usize()?,
            squat_type: parse_squat_type(m.get("type")?.as_str()?)?,
        });
    }
    let met = v.get("metrics")?;
    let mut workers = Vec::new();
    for w in met.get("workers")?.as_arr()? {
        workers.push(WorkerMetrics {
            records: w.get("records")?.as_usize()?,
            invalid: w.get("invalid")?.as_usize()?,
            blocks: w.get("blocks")?.as_usize()?,
            probes: w.get("probes")?.as_u64()?,
            deep_probes: w.get("deep_probes")?.as_u64()?,
            allocations_avoided: w.get("allocations_avoided")?.as_u64()?,
            elapsed: Duration::from_nanos(w.get("elapsed_nanos")?.as_u64()?),
        });
    }
    Some((
        ScanOutcome {
            matches,
            by_type,
            by_brand,
            scanned,
            invalid,
        },
        ScanMetrics {
            workers,
            requested_workers: met.get("requested_workers")?.as_usize()?,
            dedupe_collisions: met.get("dedupe_collisions")?.as_usize()?,
            wall: Duration::from_nanos(met.get("wall_nanos")?.as_u64()?),
        },
    ))
}

fn decode_transport(v: &json::Value) -> Option<TransportSnapshot> {
    let arr4 = |key: &str| -> Option<[u64; 4]> {
        let vals: Vec<u64> = v
            .get(key)?
            .as_arr()?
            .iter()
            .map(json::Value::as_u64)
            .collect::<Option<_>>()?;
        vals.try_into().ok()
    };
    Some(TransportSnapshot {
        attempts: v.get("attempts")?.as_u64()?,
        successes: v.get("successes")?.as_u64()?,
        retries: v.get("retries")?.as_u64()?,
        backoff_ns: v.get("backoff_ns")?.as_u64()?,
        errors: arr4("errors")?,
        injected: arr4("injected")?,
        breaker_trips: v.get("breaker_trips")?.as_u64()?,
        breaker_short_circuits: v.get("breaker_short_circuits")?.as_u64()?,
        fetch_deadline_hits: v.get("fetch_deadline_hits")?.as_u64()?,
        crawl_deadline_hits: v.get("crawl_deadline_hits")?.as_u64()?,
    })
}

fn decode_crawl(v: &json::Value) -> Option<(Vec<CrawlRecord>, CrawlStats, u64)> {
    let truncated = v.get("truncated")?.as_u64()?;
    let transport = decode_transport(v.get("transport")?)?;
    let capture = |c: &json::Value| -> Option<Option<PageCapture>> {
        if c.is_null() {
            return Some(None);
        }
        Some(Some(PageCapture {
            final_host: c.get("final_host")?.as_str()?.to_string(),
            html: c.get("html")?.as_str()?.to_string(),
            redirects: c
                .get("redirects")?
                .as_arr()?
                .iter()
                .map(|r| r.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        }))
    };
    let mut records = Vec::new();
    for r in v.get("records")?.as_arr()? {
        records.push(CrawlRecord {
            domain: r.get("domain")?.as_str()?.to_string(),
            brand: r.get("brand")?.as_usize()?,
            squat_type: parse_squat_type(r.get("type")?.as_str()?)?,
            web: capture(r.get("web")?)?,
            mobile: capture(r.get("mobile")?)?,
            web_redirect: parse_redirect(r.get("web_redirect")?.as_str()?)?,
            mobile_redirect: parse_redirect(r.get("mobile_redirect")?.as_str()?)?,
        });
    }
    // Everything except the transport counters re-aggregates from the
    // records themselves; the snapshot is the only state the crawl stage
    // owns exclusively.
    let mut stats = CrawlStats::from_records(&records);
    stats.transport = transport;
    Some((records, stats, truncated))
}

fn decode_train(v: &json::Value) -> Option<((usize, usize), EvalReport, RandomForest)> {
    let pair = |key: &str| -> Option<(usize, usize)> {
        let arr = v.get(key)?.as_arr()?;
        match arr {
            [a, b] => Some((a.as_usize()?, b.as_usize()?)),
            _ => None,
        }
    };
    let split = pair("train_split")?;
    let train_shape = pair("train_shape")?;
    let mut models = Vec::new();
    for m in v.get("models")?.as_arr()? {
        let name = match m.get("name")?.as_str()? {
            "NaiveBayes" => "NaiveBayes",
            "KNN" => "KNN",
            "RandomForest" => "RandomForest",
            _ => return None,
        };
        let bits = |key: &str| -> Option<f64> { Some(f64::from_bits(m.get(key)?.as_u64()?)) };
        let mut points = Vec::new();
        for p in m.get("roc")?.as_arr()? {
            match p.as_arr()? {
                [x, y] => points.push((f64::from_bits(x.as_u64()?), f64::from_bits(y.as_u64()?))),
                _ => return None,
            }
        }
        models.push(ModelEval {
            name,
            metrics: Metrics {
                fpr: bits("fpr")?,
                fnr: bits("fnr")?,
                auc: bits("auc")?,
                accuracy: bits("accuracy")?,
            },
            roc: RocCurve { points },
        });
    }
    let model = RandomForest::decode(v.get("model")?.as_str()?).ok()?;
    Some((
        split,
        EvalReport {
            models,
            train_shape,
        },
        model,
    ))
}

// ---------------------------------------------------------------------------
// Minimal JSON value parser (read side of the hand-rolled writers above).
// The workspace builds without registry access, so no serde: this parser
// covers exactly the JSON subset the checkpoint writers emit — objects,
// arrays, strings with escapes, integer/float numbers, booleans, null.
// ---------------------------------------------------------------------------

pub(crate) mod json {
    /// A parsed JSON value. Numbers keep their raw text so u64 bit
    /// patterns round-trip exactly (an f64 intermediate would corrupt
    /// them above 2^53).
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Value {
        Null,
        Bool(bool),
        Num(String),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub(crate) fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub(crate) fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        pub(crate) fn as_usize(&self) -> Option<usize> {
            match self {
                Value::Num(s) => s.parse().ok(),
                _ => None,
            }
        }

        pub(crate) fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub(crate) fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        pub(crate) fn is_null(&self) -> bool {
            matches!(self, Value::Null)
        }
    }

    pub(crate) fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at offset {at}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], at: &mut usize) {
        while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
            *at += 1;
        }
    }

    fn expect(bytes: &[u8], at: &mut usize, b: u8) -> Result<(), String> {
        if bytes.get(*at) == Some(&b) {
            *at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {at}", b as char))
        }
    }

    fn parse_value(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b'{') => parse_object(bytes, at),
            Some(b'[') => parse_array(bytes, at),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, at)?)),
            Some(b't') => parse_lit(bytes, at, b"true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, at, b"false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, at, b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => parse_number(bytes, at),
            _ => Err(format!("unexpected byte at offset {at}")),
        }
    }

    fn parse_lit(bytes: &[u8], at: &mut usize, lit: &[u8], v: Value) -> Result<Value, String> {
        if bytes.len() - *at >= lit.len() && &bytes[*at..*at + lit.len()] == lit {
            *at += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {at}"))
        }
    }

    fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        let start = *at;
        if bytes.get(*at) == Some(&b'-') {
            *at += 1;
        }
        while *at < bytes.len()
            && matches!(bytes[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *at += 1;
        }
        if *at == start {
            return Err(format!("empty number at offset {start}"));
        }
        String::from_utf8(bytes[start..*at].to_vec())
            .map(Value::Num)
            .map_err(|_| "non-utf8 number".to_string())
    }

    fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
        expect(bytes, at, b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match bytes.get(*at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *at += 1;
                    return String::from_utf8(out).map_err(|_| "non-utf8 string".into());
                }
                Some(b'\\') => {
                    *at += 1;
                    match bytes.get(*at) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            *at += 1;
                            let hi = parse_hex4(bytes, at)?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: \uD8xx\uDCxx.
                                if bytes.get(*at) == Some(&b'\\')
                                    && bytes.get(*at + 1) == Some(&b'u')
                                {
                                    *at += 2;
                                    let lo = parse_hex4(bytes, at)?;
                                    let code =
                                        0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                    char::from_u32(code).ok_or("bad surrogate pair")?
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else {
                                char::from_u32(hi).ok_or("bad \\u escape")?
                            };
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {at}")),
                    }
                    *at += 1;
                }
                Some(&b) => {
                    out.push(b);
                    *at += 1;
                }
            }
        }
    }

    fn parse_hex4(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
        if bytes.len() < *at + 4 {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&bytes[*at..*at + 4]).map_err(|_| "non-utf8 escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "non-hex \\u escape")?;
        *at += 4;
        Ok(v)
    }

    fn parse_array(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        expect(bytes, at, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, at);
        if bytes.get(*at) == Some(&b']') {
            *at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, at)?);
            skip_ws(bytes, at);
            match bytes.get(*at) {
                Some(b',') => *at += 1,
                Some(b']') => {
                    *at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected , or ] at offset {at}")),
            }
        }
    }

    fn parse_object(bytes: &[u8], at: &mut usize) -> Result<Value, String> {
        expect(bytes, at, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, at);
        if bytes.get(*at) == Some(&b'}') {
            *at += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(bytes, at);
            let key = parse_string(bytes, at)?;
            skip_ws(bytes, at);
            expect(bytes, at, b':')?;
            let value = parse_value(bytes, at)?;
            fields.push((key, value));
            skip_ws(bytes, at);
            match bytes.get(*at) {
                Some(b',') => *at += 1,
                Some(b'}') => {
                    *at += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected , or }} at offset {at}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("squatphi-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store(tag: &str) -> (CheckpointStore, PathBuf) {
        let dir = tempdir(tag);
        let s = CheckpointStore::open(
            &dir,
            &SimConfig::tiny(),
            &PipelineFaultPlan::none(),
            &DiskFaultPlan::none(),
        )
        .unwrap();
        (s, dir)
    }

    /// Overwrites one on-disk generation with damage, through the same
    /// durable-write path production uses.
    fn corrupt(dir: &Path, name: &str) {
        RealVfs
            .write(&dir.join(name), b"{\"version\": 1, tru")
            .unwrap();
    }

    #[test]
    fn json_parser_round_trips_writer_subset() {
        let v = json::parse(
            "{\"a\": 1, \"b\": [1, 2, 3], \"c\": \"x\\ny \\u00e9\", \"d\": null, \"e\": {\"f\": 18446744073709551615}}",
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny é"));
        assert!(v.get("d").unwrap().is_null());
        assert_eq!(
            v.get("e").unwrap().get("f").unwrap().as_u64(),
            Some(u64::MAX),
            "u64 bit patterns must survive parsing"
        );
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("").is_err());
    }

    #[test]
    fn config_hash_ignores_output_neutral_knobs() {
        let base = SimConfig::tiny();
        let faults = PipelineFaultPlan::none();
        let mut threads = base.clone();
        threads.threads = 99;
        assert_eq!(config_hash(&base, &faults), config_hash(&threads, &faults));
        let mut seed = base.clone();
        seed.seed = 999;
        assert_ne!(config_hash(&base, &faults), config_hash(&seed, &faults));
        assert_ne!(
            config_hash(&base, &faults),
            config_hash(&base, &PipelineFaultPlan::none().analyzer_panics(5)),
        );
    }

    #[test]
    fn crawl_checkpoint_round_trips() {
        let (store, dir) = store("crawl");
        let records = vec![
            CrawlRecord {
                domain: "payp\u{00e9}l.com".into(),
                brand: 3,
                squat_type: SquatType::Homograph,
                web: Some(PageCapture {
                    final_host: "paypél.com".into(),
                    html: "<html>\"quoted\"\nline</html>".into(),
                    redirects: vec!["a.com".into(), "b.com".into()],
                }),
                mobile: None,
                web_redirect: RedirectClass::Other,
                mobile_redirect: RedirectClass::None,
            },
            CrawlRecord {
                domain: "dead.com".into(),
                brand: 0,
                squat_type: SquatType::WrongTld,
                web: None,
                mobile: None,
                web_redirect: RedirectClass::None,
                mobile_redirect: RedirectClass::None,
            },
        ];
        let mut stats = CrawlStats::from_records(&records);
        stats.transport.attempts = 42;
        stats.transport.errors = [1, 2, 3, 4];
        store.save_crawl(&records, &stats, 7).unwrap();
        let Loaded::Value((r2, s2, truncated)) = store.load_crawl().unwrap() else {
            panic!("crawl checkpoint did not load");
        };
        assert_eq!(r2, records);
        assert_eq!(truncated, 7);
        assert_eq!(s2.transport.attempts, 42);
        assert_eq!(s2.transport.errors, [1, 2, 3, 4]);
        assert_eq!(s2.web_live, stats.web_live);
        // Atomic writes leave no temp files behind.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoints_are_recomputed_not_fatal() {
        let (store, dir) = store("stale");
        let records: Vec<CrawlRecord> = Vec::new();
        store
            .save_crawl(&records, &CrawlStats::from_records(&records), 0)
            .unwrap();
        // A different config must not load this checkpoint.
        let mut other_cfg = SimConfig::tiny();
        other_cfg.seed = 4242;
        let other = CheckpointStore::open(
            &dir,
            &other_cfg,
            &PipelineFaultPlan::none(),
            &DiskFaultPlan::none(),
        )
        .unwrap();
        assert!(matches!(other.load_crawl().unwrap(), Loaded::Stale));
        // Missing checkpoint → Missing.
        assert!(matches!(store.load_scan().unwrap(), Loaded::Missing));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_newest_generation_recovers_from_the_previous() {
        let (store, dir) = store("recover");
        let records: Vec<CrawlRecord> = Vec::new();
        let stats = CrawlStats::from_records(&records);
        store.save_crawl(&records, &stats, 1).unwrap();
        store.save_crawl(&records, &stats, 2).unwrap();
        corrupt(&dir, "crawl.g2.ckpt");
        match store.load_crawl().unwrap() {
            Loaded::Recovered((_, _, truncated), detail) => {
                assert_eq!(truncated, 1, "recovery must serve the older generation");
                assert!(detail.contains("g2"), "damage detail missing: {detail}");
            }
            _ => panic!("expected recovery from the previous generation"),
        }
        assert!(store.stats().reconciles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_damaged_checkpoint_is_a_structured_error_not_a_silent_recompute() {
        let (store, dir) = store("unrecoverable");
        let records: Vec<CrawlRecord> = Vec::new();
        store
            .save_crawl(&records, &CrawlStats::from_records(&records), 0)
            .unwrap();
        corrupt(&dir, "crawl.g1.ckpt");
        match store.load_crawl() {
            Err(CheckpointError::Unrecoverable { name, detail, .. }) => {
                assert_eq!(name, "crawl");
                assert!(detail.contains("g1"), "damage detail missing: {detail}");
            }
            other => panic!("expected an unrecoverable error, got {:?}", other.is_ok()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
