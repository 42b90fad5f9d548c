//! The watch daemon's state, its tick loop, and the record of what each
//! tick changed — the input of the delta codec ([`super::codec`]).

use super::codec::WatchStore;
use super::config::{WatchConfig, WatchError, WatchOptions};
use super::counters::{WatchCounters, WatchMetrics, WatchSummary};
use crate::artifact::content_key;
use crate::checkpoint::Loaded;
use crate::pipeline::SquatPhi;
use squatphi_crawler::{
    crawl_all, CircuitBreakerPolicy, Clock, CrawlConfig, InProcessTransport, RecrawlScheduler,
    RetryPolicy, TransportSnapshot, TransportStack, VirtualClock,
};
use squatphi_dnsdb::{EventStream, StreamEvent};
use squatphi_domain::DomainName;
use squatphi_feeds::{Blacklists, PhishKind};
use squatphi_squat::{BrandRegistry, SquatDetector, SquatMatch, SquatType};
use squatphi_web::{WebWorld, WorldConfig};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

/// One daemon tick on the virtual clock (equals one event-stream burst
/// window, so each tick ingests about one burst).
const TICK_NANOS: u64 = 1_000_000;

/// Seed of the state fingerprint.
const FINGERPRINT_SEED: u64 = 0x5171_2019;

/// World-behavior seed salt (decorrelates site behavior from the event
/// stream's own draws).
const WORLD_SALT: u64 = 0x0077_a7c4;

/// Blacklist-lag horizon in sweep-days (paper §6.3 measures a month).
const BLACKLIST_HORIZON_DAYS: u32 = 30;

/// A detected squatting registration waiting for its first crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Candidate {
    pub(super) seq: u64,
    pub(super) domain: String,
    pub(super) brand: usize,
    pub(super) squat_type: SquatType,
    pub(super) ip: Ipv4Addr,
    pub(super) detected_tick: u64,
}

/// A candidate confirmed live, under periodic re-crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Tracked {
    pub(super) brand: usize,
    pub(super) squat_type: SquatType,
    pub(super) ip: Ipv4Addr,
    pub(super) first_live_tick: u64,
    pub(super) crawls: u64,
    pub(super) blacklist_day: Option<u32>,
    pub(super) blacklisted: bool,
}

/// Everything that defines the daemon's progress: a pure function of
/// `(config, watermark)`, and exactly what a checkpoint persists.
#[derive(Debug, Default, PartialEq)]
pub(super) struct WatchState {
    pub(super) next_seq: u64,
    pub(super) tick: u64,
    /// Accepted event seqs awaiting detect, ascending.
    pub(super) ingest: VecDeque<u64>,
    /// Detected registrations awaiting their first crawl, ascending by
    /// `seq`.
    pub(super) candidates: VecDeque<Candidate>,
    pub(super) tracked: BTreeMap<String, Tracked>,
    pub(super) scheduler: RecrawlScheduler,
    pub(super) counters: WatchCounters,
    pub(super) transport: TransportSnapshot,
    pub(super) metrics: Vec<WatchMetrics>,
}

impl WatchState {
    /// Order-stable digest over everything that defines the daemon's
    /// progress, so interrupted-and-resumed runs digest identically to
    /// uninterrupted ones.
    pub(super) fn fingerprint(&self) -> u64 {
        let mut h = FINGERPRINT_SEED;
        h = mix_u64(h, self.next_seq);
        h = mix_u64(h, self.tick);
        for &seq in &self.ingest {
            h = mix_u64(h, seq);
        }
        for c in &self.candidates {
            h = mix_u64(h, c.seq);
            h = mix_str(h, &c.domain);
            h = mix_u64(h, c.brand as u64);
            h = mix_str(h, c.squat_type.name());
            h = mix(h, &c.ip.octets());
            h = mix_u64(h, c.detected_tick);
        }
        for (domain, t) in &self.tracked {
            h = mix_str(h, domain);
            h = mix_u64(h, t.brand as u64);
            h = mix_str(h, t.squat_type.name());
            h = mix(h, &t.ip.octets());
            h = mix_u64(h, t.first_live_tick);
            h = mix_u64(h, t.crawls);
            h = mix_u64(h, t.blacklist_day.map_or(u64::MAX, u64::from));
            h = mix_u64(h, u64::from(t.blacklisted));
        }
        for (due, domain) in self.scheduler.entries() {
            h = mix_u64(h, due);
            h = mix_str(h, domain);
        }
        for (_, v) in self.counters.fields() {
            h = mix_u64(h, v);
        }
        let t = &self.transport;
        for v in [
            t.attempts,
            t.successes,
            t.retries,
            t.backoff_ns,
            t.errors[0],
            t.errors[1],
            t.errors[2],
            t.errors[3],
            t.breaker_trips,
            t.breaker_short_circuits,
        ] {
            h = mix_u64(h, v);
        }
        for m in &self.metrics {
            for (_, v) in m.fields() {
                h = mix_u64(h, v);
            }
        }
        h
    }
}

fn mix(h: u64, bytes: &[u8]) -> u64 {
    content_key(h, bytes)
}

fn mix_u64(h: u64, v: u64) -> u64 {
    mix(h, &v.to_le_bytes())
}

fn mix_str(h: u64, s: &str) -> u64 {
    mix(mix_u64(h, s.len() as u64), s.as_bytes())
}

/// What changed since the last checkpoint — all the delta encoder needs
/// beside the live state. The bounded queues and the append-only metrics
/// history are diffed against marks taken at the last checkpoint; only the
/// unbounded `tracked` map and its re-crawl slots need their mutation
/// sites to say what they touched ([`Runner::touch`]).
#[derive(Debug, Default)]
pub(super) struct Recorder {
    /// Tick of the last checkpoint (`None` before the first): a
    /// checkpoint at the same tick has nothing to add and writes nothing.
    pub(super) tick: Option<u64>,
    /// Seqs of the candidates queued at the last checkpoint, ascending.
    pub(super) candidates: Vec<u64>,
    /// Metrics rows the last checkpoint already covered.
    pub(super) metrics: usize,
    /// Domains whose tracked entry or re-crawl slot changed since.
    pub(super) dirty: BTreeSet<String>,
}

impl Recorder {
    /// Takes the marks of a checkpoint (or a load) of `state`.
    pub(super) fn mark(&mut self, state: &WatchState) {
        self.tick = Some(state.tick);
        self.candidates.clear();
        self.candidates
            .extend(state.candidates.iter().map(|c| c.seq));
        self.metrics = state.metrics.len();
        self.dirty.clear();
    }

    fn touch(&mut self, domain: &str) {
        if !self.dirty.contains(domain) {
            self.dirty.insert(domain.to_string());
        }
    }
}

impl SquatPhi {
    /// Runs the streaming watch daemon to completion (or to
    /// `opts.stop_after`), returning the deterministic run summary.
    ///
    /// The daemon ingests `config.events()` seeded feed events through
    /// bounded ingest → detect → crawl stages, re-crawling live
    /// candidates every `config.crawl_cadence()` ticks. With
    /// `opts.checkpoint_dir` set, the watermark state is persisted every
    /// `config.checkpoint_every()` events — as a delta appended to the
    /// current generation's journal, or as a fresh base when the journal
    /// outweighs it — and, with `opts.resume`, restored, reproducing the
    /// uninterrupted run's [`WatchSummary::state_fingerprint`] exactly.
    pub fn try_watch(
        config: &WatchConfig,
        opts: &WatchOptions,
    ) -> Result<WatchSummary, WatchError> {
        if opts.resume && opts.checkpoint_dir.is_none() {
            return Err(WatchError::Options(
                "resume requires a checkpoint directory".into(),
            ));
        }
        let store = match &opts.checkpoint_dir {
            Some(dir) => Some(
                WatchStore::open(dir, config, &opts.disk_faults).map_err(WatchError::Checkpoint)?,
            ),
            None => None,
        };
        let mut runner = Runner::new(config, store);
        let (resumed, recovered_checkpoint) = if opts.resume {
            runner.resume().map_err(WatchError::Checkpoint)?
        } else {
            (false, None)
        };

        let mut interrupted = false;
        while !runner.finished() {
            runner.step();
            interrupted = opts.stop_after.is_some_and(|n| runner.state.next_seq >= n);
            if interrupted || runner.checkpoint_due() {
                runner.checkpoint().map_err(WatchError::Checkpoint)?;
            }
            if interrupted {
                break;
            }
        }
        // The end-of-run checkpoint; nothing to write when the last tick
        // was checkpointed already.
        runner.checkpoint().map_err(WatchError::Checkpoint)?;

        let durability = runner
            .store
            .as_ref()
            .map(WatchStore::stats)
            .unwrap_or_default();
        let state = runner.state;
        Ok(WatchSummary {
            seed: config.seed,
            events: config.events,
            interrupted,
            watermark: state.next_seq,
            tick: state.tick,
            state_fingerprint: state.fingerprint(),
            ingest_depth: state.ingest.len() as u64,
            candidate_depth: state.candidates.len() as u64,
            tracked: state.tracked.len() as u64,
            pending_recrawls: state.scheduler.len() as u64,
            counters: state.counters,
            transport: state.transport,
            metrics: state.metrics,
            resumed,
            recovered_checkpoint,
            durability,
        })
    }
}

pub(super) struct Runner<'a> {
    config: &'a WatchConfig,
    registry: BrandRegistry,
    detector: SquatDetector,
    stream: EventStream,
    blacklists: Blacklists,
    clock: VirtualClock,
    pub(super) state: WatchState,
    /// The checkpoint store and its change record; `None` when
    /// persistence is off, and recording then costs nothing.
    pub(super) store: Option<WatchStore>,
    /// Watermark of the last checkpoint.
    last_checkpoint: u64,
}

impl<'a> Runner<'a> {
    pub(super) fn new(config: &'a WatchConfig, store: Option<WatchStore>) -> Self {
        let registry = BrandRegistry::with_size(config.brands);
        Runner {
            detector: SquatDetector::new(&registry),
            stream: EventStream::new(&config.stream, &registry),
            registry,
            blacklists: Blacklists::new(),
            clock: VirtualClock::new(),
            config,
            state: WatchState::default(),
            store,
            last_checkpoint: 0,
        }
    }

    /// Restores the newest verifiable checkpoint, if the store holds one:
    /// whether it did, and what damage it had to skip to get there.
    fn resume(&mut self) -> Result<(bool, Option<String>), crate::CheckpointError> {
        let Some(store) = &mut self.store else {
            return Ok((false, None));
        };
        let (state, skipped) = match store.load()? {
            Loaded::Value(state) => (state, None),
            Loaded::Recovered(state, detail) => (state, Some(detail)),
            Loaded::Missing | Loaded::Stale => return Ok((false, None)),
        };
        self.clock
            .advance(Duration::from_nanos(state.tick * TICK_NANOS));
        self.last_checkpoint = state.next_seq;
        self.state = state;
        Ok((true, skipped))
    }

    /// Whether the stream is consumed and both queues have drained.
    pub(super) fn finished(&self) -> bool {
        self.state.next_seq >= self.config.events
            && self.state.ingest.is_empty()
            && self.state.candidates.is_empty()
    }

    /// Whether `checkpoint_every` events have been injected since the
    /// last checkpoint.
    pub(super) fn checkpoint_due(&self) -> bool {
        self.state.next_seq - self.last_checkpoint >= self.config.checkpoint_every
    }

    /// Persists the state, when persistence is on and a tick has run
    /// since the last checkpoint.
    pub(super) fn checkpoint(&mut self) -> Result<(), crate::CheckpointError> {
        self.last_checkpoint = self.state.next_seq;
        match &mut self.store {
            Some(store) => store.checkpoint(&self.state),
            None => Ok(()),
        }
    }

    /// Notes that `domain`'s tracked entry or re-crawl slot is about to
    /// change, or just has — every mutation of `state.tracked` and
    /// `state.scheduler` says so here, and the next delta carries the
    /// domain's new entry (or its removal).
    fn touch(&mut self, domain: &str) {
        if let Some(store) = &mut self.store {
            store.recorder.touch(domain);
        }
    }

    /// One tick: advance the clock, ingest due events, classify a
    /// batch, and sweep the crawler on cadence boundaries.
    pub(super) fn step(&mut self) {
        self.state.tick += 1;
        self.clock.advance(Duration::from_nanos(TICK_NANOS));
        self.ingest();
        self.detect();
        if self.state.tick.is_multiple_of(self.config.crawl_cadence) {
            self.sweep();
            self.snapshot_metrics();
        }
    }

    /// Pulls every event whose virtual timestamp falls inside the
    /// current tick window. The queue is bounded: overflow is counted
    /// per kind and dropped (the feed does not wait for us).
    fn ingest(&mut self) {
        let now = self.clock.now().as_nanos() as u64;
        while self.state.next_seq < self.config.events {
            let ev = self.stream.event(self.state.next_seq);
            if ev.at_nanos >= now {
                break;
            }
            self.state.next_seq += 1;
            self.state.counters.injected += 1;
            if self.state.ingest.len() < self.config.ingest_capacity {
                self.state.ingest.push_back(ev.seq);
                self.state.counters.accepted += 1;
            } else {
                match ev.event {
                    StreamEvent::Registration { .. } => {
                        self.state.counters.dropped_registrations += 1
                    }
                    StreamEvent::Deregistration { .. } => self.state.counters.dropped_churn += 1,
                    StreamEvent::FeedUpdate { .. } => self.state.counters.dropped_feed += 1,
                }
            }
        }
    }

    /// Classifies up to `detect_batch` queued events. Registration
    /// matches go to the bounded candidate queue; when it fills, the
    /// unapplied batch tail goes back to the head of the ingest queue
    /// (a stall, not a drop) and is retried next tick.
    fn detect(&mut self) {
        let take = self.config.detect_batch.min(self.state.ingest.len());
        if take == 0 {
            return;
        }
        let batch: Vec<u64> = self.state.ingest.drain(..take).collect();
        let events: Vec<StreamEvent> = batch
            .iter()
            .map(|&seq| self.stream.event(seq).event)
            .collect();
        let matches = self.classify_batch(&events);

        let mut stalled_at = None;
        for (i, event) in events.iter().enumerate() {
            match event {
                StreamEvent::Registration { domain, ip } => {
                    if matches[i].is_some()
                        && self.state.candidates.len() >= self.config.candidate_capacity
                    {
                        self.state.counters.detect_stalls += 1;
                        stalled_at = Some(i);
                        break;
                    }
                    if let Some(m) = &matches[i] {
                        self.state.candidates.push_back(Candidate {
                            seq: batch[i],
                            domain: domain.clone(),
                            brand: m.brand,
                            squat_type: m.squat_type,
                            ip: *ip,
                            detected_tick: self.state.tick,
                        });
                        self.state.counters.detected += 1;
                    }
                    self.state.counters.processed += 1;
                    self.state.counters.registrations += 1;
                }
                StreamEvent::Deregistration { domain } => {
                    self.state.counters.processed += 1;
                    if self.state.tracked.remove(domain).is_some() {
                        self.state.scheduler.cancel(domain);
                        self.touch(domain);
                        self.state.counters.churn_hits += 1;
                        self.state.counters.churn_takedowns += 1;
                    } else {
                        self.state.counters.churn_misses += 1;
                    }
                    let before = self.state.candidates.len();
                    self.state.candidates.retain(|c| c.domain != *domain);
                    self.state.counters.purged_candidates +=
                        (before - self.state.candidates.len()) as u64;
                }
                StreamEvent::FeedUpdate { domain } => {
                    self.state.counters.processed += 1;
                    if self.state.tracked.contains_key(domain) {
                        self.state.counters.feed_hits += 1;
                    } else {
                        self.state.counters.feed_misses += 1;
                    }
                }
            }
        }
        if let Some(i) = stalled_at {
            for &seq in batch[i..].iter().rev() {
                self.state.ingest.push_front(seq);
            }
        }
    }

    /// Classification of a batch, on the calling thread: `detect` caps a
    /// batch at `detect_batch` names (default 16) and one name classifies
    /// in ~0.3 µs, so no batch comes near the ~50 µs a thread spawn costs.
    fn classify_batch(&self, events: &[StreamEvent]) -> Vec<Option<SquatMatch>> {
        events
            .iter()
            .map(|event| {
                let StreamEvent::Registration { domain, .. } = event else {
                    return None;
                };
                let parsed = DomainName::parse(domain).ok()?;
                self.detector.classify(&parsed)
            })
            .collect()
    }

    /// A crawl sweep: new candidates (guaranteed at least half the
    /// batch, so backlog always drains) plus due re-crawls, pushed
    /// through the tower-style transport stack against a per-sweep
    /// [`WebWorld`]. One sweep models one feed day for blacklist lag.
    fn sweep(&mut self) {
        let mut jobs: Vec<(String, usize, SquatType)> = Vec::new();
        let mut job_ips: Vec<Ipv4Addr> = Vec::new();
        let mut in_batch: HashSet<String> = HashSet::new();

        let new_quota = self.config.crawl_batch.div_ceil(2);
        while jobs.len() < new_quota {
            let Some(c) = self.state.candidates.pop_front() else {
                break;
            };
            if self.state.tracked.contains_key(&c.domain) || in_batch.contains(&c.domain) {
                self.state.counters.duplicate_candidates += 1;
                continue;
            }
            self.state.counters.first_crawls += 1;
            in_batch.insert(c.domain.clone());
            jobs.push((c.domain, c.brand, c.squat_type));
            job_ips.push(c.ip);
        }
        let fresh = jobs.len();
        let due = self
            .state
            .scheduler
            .due(self.state.tick, self.config.crawl_batch - jobs.len());
        for domain in due {
            // Popped from the scheduler: re-slotted or untracked below.
            self.touch(&domain);
            let t = &self.state.tracked[&domain];
            self.state.counters.recrawls += 1;
            jobs.push((domain.clone(), t.brand, t.squat_type));
            job_ips.push(t.ip);
        }

        if !jobs.is_empty() {
            let records = self.crawl(&jobs, &job_ips);
            for (i, (record, (domain, brand, squat_type))) in records.iter().zip(&jobs).enumerate()
            {
                self.state.counters.crawl_jobs += 1;
                let live = record.live();
                if i < fresh {
                    if live {
                        self.state.counters.live_found += 1;
                        let lag = self.blacklists.detection_day(
                            domain,
                            PhishKind::Squatting,
                            BLACKLIST_HORIZON_DAYS,
                        );
                        self.touch(domain);
                        self.state.tracked.insert(
                            domain.clone(),
                            Tracked {
                                brand: *brand,
                                squat_type: *squat_type,
                                ip: job_ips[i],
                                first_live_tick: self.state.tick,
                                crawls: 1,
                                blacklist_day: lag,
                                blacklisted: false,
                            },
                        );
                        self.state
                            .scheduler
                            .schedule(self.state.tick + self.config.crawl_cadence, domain);
                    } else {
                        self.state.counters.dead_found += 1;
                    }
                } else if live {
                    let entry = self
                        .state
                        .tracked
                        .get_mut(domain)
                        .expect("re-crawled domains stay tracked until this pass");
                    entry.crawls += 1;
                    self.state
                        .scheduler
                        .schedule(self.state.tick + self.config.crawl_cadence, domain);
                } else {
                    self.state.tracked.remove(domain);
                    self.state.counters.takedowns += 1;
                }
            }
        }

        // Blacklist-lag aging: one sweep == one day of feed age.
        let cadence = self.config.crawl_cadence;
        let tick = self.state.tick;
        let mut recorder = self.store.as_mut().map(|s| &mut s.recorder);
        for (domain, t) in self.state.tracked.iter_mut() {
            if t.blacklisted {
                continue;
            }
            let age_days = (tick - t.first_live_tick) / cadence;
            if let Some(day) = t.blacklist_day {
                if age_days >= u64::from(day) {
                    t.blacklisted = true;
                    self.state.counters.blacklisted += 1;
                    if let Some(r) = &mut recorder {
                        r.touch(domain);
                    }
                }
            }
        }
    }

    /// Crawls one sweep batch through retry + circuit-breaker
    /// middleware over a per-sweep world, one job after another: the
    /// retry / breaker ledger folded into the state fingerprint depends
    /// on the order fetches reach a shared host's breaker, and a sweep is
    /// at most `crawl_batch` jobs of ~5 µs each.
    fn crawl(
        &mut self,
        jobs: &[(String, usize, SquatType)],
        job_ips: &[Ipv4Addr],
    ) -> Vec<squatphi_crawler::CrawlRecord> {
        let squats: Vec<(String, usize, SquatType, Ipv4Addr)> = jobs
            .iter()
            .zip(job_ips)
            .map(|((d, b, t), ip)| (d.clone(), *b, *t, *ip))
            .collect();
        let world = WebWorld::build(
            &squats,
            &self.registry,
            &WorldConfig {
                phishing_domains: squats.len().div_ceil(4),
                seed: self.config.seed ^ WORLD_SALT,
                ..WorldConfig::default()
            },
        );
        let stack = TransportStack::new(InProcessTransport::new(Arc::new(world)))
            .retry(RetryPolicy::default())
            .breaker(CircuitBreakerPolicy::default())
            .build();
        let sweep_index = self.state.tick / self.config.crawl_cadence;
        let crawl_cfg = CrawlConfig::builder()
            .workers(1)
            .retries(1)
            .snapshot((sweep_index % 4) as u8)
            .build()
            .expect("watch crawl config is valid");
        let (records, stats) = crawl_all(jobs, &self.registry, &stack, &crawl_cfg);
        accumulate(&mut self.state.transport, &stats.transport);
        records
    }

    fn snapshot_metrics(&mut self) {
        let c = &self.state.counters;
        self.state.metrics.push(WatchMetrics {
            tick: self.state.tick,
            injected: c.injected,
            processed: c.processed,
            ingest_depth: self.state.ingest.len() as u64,
            candidate_depth: self.state.candidates.len() as u64,
            dropped: c.dropped(),
            stalls: c.detect_stalls,
            detected: c.detected,
            tracked: self.state.tracked.len() as u64,
            blacklisted: c.blacklisted,
        });
    }
}

/// Adds one sweep's transport snapshot into the running totals.
fn accumulate(total: &mut TransportSnapshot, s: &TransportSnapshot) {
    total.attempts += s.attempts;
    total.successes += s.successes;
    total.retries += s.retries;
    total.backoff_ns += s.backoff_ns;
    for i in 0..4 {
        total.errors[i] += s.errors[i];
        total.injected[i] += s.injected[i];
    }
    total.breaker_trips += s.breaker_trips;
    total.breaker_short_circuits += s.breaker_short_circuits;
    total.fetch_deadline_hits += s.fetch_deadline_hits;
    total.crawl_deadline_hits += s.crawl_deadline_hits;
}
