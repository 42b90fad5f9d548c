//! Watch-daemon parameters: the validated [`WatchConfig`] and its
//! builder, the per-run [`WatchOptions`], the error types, and the config
//! hash that binds a checkpoint to the run that wrote it.

use crate::artifact::content_key;
use crate::checkpoint::CheckpointError;
use squatphi_dnsdb::EventStreamConfig;
use squatphi_durability::DiskFaultPlan;
use std::path::PathBuf;

/// Watch checkpoint format version, folded into the config hash: a
/// checkpoint written under another version classifies `stale_config`
/// and the run recomputes. 2 = base snapshot + delta journal.
const WATCH_VERSION: u64 = 2;

/// Seed of the watch config-hash content key.
const HASH_SEED: u64 = 0x3a7c_9d02;

/// Validated watch-daemon parameters; build one with
/// [`WatchConfig::builder`] (mirrors
/// [`squatphi_crawler::CrawlConfig::builder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchConfig {
    pub(super) brands: usize,
    pub(super) seed: u64,
    pub(super) events: u64,
    pub(super) ingest_capacity: usize,
    pub(super) candidate_capacity: usize,
    pub(super) detect_batch: usize,
    pub(super) crawl_cadence: u64,
    pub(super) crawl_batch: usize,
    threads: usize,
    pub(super) checkpoint_every: u64,
    pub(super) stream: EventStreamConfig,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig::builder()
            .build()
            .expect("default watch config is valid")
    }
}

impl WatchConfig {
    /// Starts a builder pre-loaded with the default values.
    pub fn builder() -> WatchConfigBuilder {
        WatchConfigBuilder::default()
    }

    /// Monitored brands.
    pub fn brands(&self) -> usize {
        self.brands
    }

    /// Stream + world seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total events this run consumes before draining and stopping.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bounded ingest-queue capacity (overflow drops, counted).
    pub fn ingest_capacity(&self) -> usize {
        self.ingest_capacity
    }

    /// Bounded candidate-queue capacity (overflow stalls detect).
    pub fn candidate_capacity(&self) -> usize {
        self.candidate_capacity
    }

    /// Events classified per tick.
    pub fn detect_batch(&self) -> usize {
        self.detect_batch
    }

    /// Ticks between crawl sweeps (one sweep models one feed day).
    pub fn crawl_cadence(&self) -> u64 {
        self.crawl_cadence
    }

    /// Max domains crawled per sweep (new candidates get at least half).
    pub fn crawl_batch(&self) -> usize {
        self.crawl_batch
    }

    /// Unused: the watch loop runs on one thread (a tick's ≤`detect_batch`
    /// names and a sweep's ≤`crawl_batch` jobs are too small to pay for a
    /// spawn, and sweeps must be sequential). Kept, with its builder,
    /// because `sysbench` and the CLI's `--threads` set it.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Events between watermark checkpoints.
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// The derived event-stream configuration.
    pub fn stream(&self) -> &EventStreamConfig {
        &self.stream
    }
}

/// Validating builder for [`WatchConfig`].
///
/// ```
/// use squatphi::stream::WatchConfig;
/// let cfg = WatchConfig::builder().seed(7).events(500).build().unwrap();
/// assert_eq!(cfg.seed(), 7);
/// assert!(WatchConfig::builder().ingest_capacity(0).build().is_err());
/// assert!(WatchConfig::builder().crawl_cadence(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct WatchConfigBuilder {
    brands: usize,
    seed: u64,
    events: u64,
    ingest_capacity: usize,
    candidate_capacity: usize,
    detect_batch: usize,
    crawl_cadence: u64,
    crawl_batch: usize,
    threads: usize,
    checkpoint_every: u64,
}

impl Default for WatchConfigBuilder {
    fn default() -> Self {
        WatchConfigBuilder {
            brands: 40,
            seed: 20180401,
            events: 2_000,
            ingest_capacity: 128,
            candidate_capacity: 32,
            detect_batch: 16,
            crawl_cadence: 4,
            crawl_batch: 8,
            threads: 4,
            checkpoint_every: 64,
        }
    }
}

impl WatchConfigBuilder {
    /// Monitored brands (must be >= 1).
    pub fn brands(mut self, n: usize) -> Self {
        self.brands = n;
        self
    }

    /// Stream + world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total events to consume.
    pub fn events(mut self, n: u64) -> Self {
        self.events = n;
        self
    }

    /// Ingest queue capacity (must be >= 1).
    pub fn ingest_capacity(mut self, n: usize) -> Self {
        self.ingest_capacity = n;
        self
    }

    /// Candidate queue capacity (must be >= 1).
    pub fn candidate_capacity(mut self, n: usize) -> Self {
        self.candidate_capacity = n;
        self
    }

    /// Events classified per tick (must be >= 1).
    pub fn detect_batch(mut self, n: usize) -> Self {
        self.detect_batch = n;
        self
    }

    /// Ticks between crawl sweeps (must be >= 1).
    pub fn crawl_cadence(mut self, n: u64) -> Self {
        self.crawl_cadence = n;
        self
    }

    /// Max domains per sweep (must be >= 1).
    pub fn crawl_batch(mut self, n: usize) -> Self {
        self.crawl_batch = n;
        self
    }

    /// Validated (must be >= 1) but otherwise unused; see
    /// [`WatchConfig::threads`].
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Events between checkpoint writes (must be >= 1).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Validates and builds the config.
    pub fn build(self) -> Result<WatchConfig, WatchConfigError> {
        if self.ingest_capacity == 0 || self.candidate_capacity == 0 {
            return Err(WatchConfigError::ZeroQueueCapacity);
        }
        if self.crawl_cadence == 0 {
            return Err(WatchConfigError::ZeroCadence);
        }
        if self.detect_batch == 0 || self.crawl_batch == 0 {
            return Err(WatchConfigError::ZeroBatch);
        }
        if self.threads == 0 {
            return Err(WatchConfigError::ZeroWorkers);
        }
        if self.brands == 0 {
            return Err(WatchConfigError::ZeroBrands);
        }
        if self.checkpoint_every == 0 {
            return Err(WatchConfigError::ZeroCheckpointCadence);
        }
        Ok(WatchConfig {
            brands: self.brands,
            seed: self.seed,
            events: self.events,
            ingest_capacity: self.ingest_capacity,
            candidate_capacity: self.candidate_capacity,
            detect_batch: self.detect_batch,
            crawl_cadence: self.crawl_cadence,
            crawl_batch: self.crawl_batch,
            threads: self.threads,
            checkpoint_every: self.checkpoint_every,
            stream: EventStreamConfig {
                seed: self.seed,
                ..EventStreamConfig::default()
            },
        })
    }
}

/// Rejected [`WatchConfigBuilder`] combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchConfigError {
    /// Both queues must hold at least one entry — a zero-capacity queue
    /// drops or stalls everything forever.
    ZeroQueueCapacity,
    /// `crawl_cadence` must be >= 1 tick — candidates would never drain.
    ZeroCadence,
    /// `detect_batch` / `crawl_batch` must be >= 1.
    ZeroBatch,
    /// `threads` must be >= 1.
    ZeroWorkers,
    /// `brands` must be >= 1.
    ZeroBrands,
    /// `checkpoint_every` must be >= 1 event.
    ZeroCheckpointCadence,
}

impl std::fmt::Display for WatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WatchConfigError::ZeroQueueCapacity => "watch config: queue capacities must be >= 1",
            WatchConfigError::ZeroCadence => "watch config: crawl_cadence must be >= 1",
            WatchConfigError::ZeroBatch => "watch config: batch sizes must be >= 1",
            WatchConfigError::ZeroWorkers => "watch config: threads must be >= 1",
            WatchConfigError::ZeroBrands => "watch config: brands must be >= 1",
            WatchConfigError::ZeroCheckpointCadence => {
                "watch config: checkpoint_every must be >= 1"
            }
        })
    }
}

impl std::error::Error for WatchConfigError {}

/// How [`SquatPhi::try_watch`](crate::pipeline::SquatPhi::try_watch) should behave around persistence and
/// interruption (the watch analog of [`crate::RunOptions`]).
#[derive(Debug, Clone, Default)]
pub struct WatchOptions {
    /// Directory for the watermark checkpoint (generational
    /// `watch.g<N>.ckpt` files, each a base snapshot plus a journal of
    /// deltas); `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint if one matches the config hash.
    pub resume: bool,
    /// Stop (with a checkpoint, when persistence is on) once this many
    /// events have been injected — the deterministic kill stand-in.
    pub stop_after: Option<u64>,
    /// Seeded disk-fault plan injected under every durable write and
    /// append (default: none). Output-neutral: deliberately excluded from the
    /// config hash so a no-fault resume can load checkpoints a faulted
    /// run committed.
    pub disk_faults: DiskFaultPlan,
}

/// Why a watch run could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchError {
    /// Invalid [`WatchOptions`] combination.
    Options(String),
    /// Checkpoint persistence failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::Options(msg) => write!(f, "watch options: {msg}"),
            WatchError::Checkpoint(e) => write!(f, "watch checkpoint: {e}"),
        }
    }
}

impl std::error::Error for WatchError {}

/// Canonical watch config hash binding the checkpoint to its run.
pub(super) fn watch_config_hash(config: &WatchConfig) -> u64 {
    let s = &config.stream;
    let canon = format!(
        "wv{WATCH_VERSION}|brands:{}|seed:{}|events:{}|q:{},{}|batch:{},{}|cadence:{}|stream:{},{},{},{},{},{},{}",
        config.brands,
        config.seed,
        config.events,
        config.ingest_capacity,
        config.candidate_capacity,
        config.detect_batch,
        config.crawl_batch,
        config.crawl_cadence,
        s.seed,
        s.squat_permille,
        s.churn_permille,
        s.feed_permille,
        s.burst,
        s.period_nanos,
        s.intra_nanos,
    );
    content_key(HASH_SEED, canon.as_bytes())
}
