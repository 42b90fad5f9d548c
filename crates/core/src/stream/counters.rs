//! What a watch run counts and reports: the conservation-checked
//! [`WatchCounters`], the per-sweep [`WatchMetrics`] rows, and the
//! [`WatchSummary`] with its telemetry export and JSON view.

use squatphi_crawler::TransportSnapshot;
use squatphi_durability::DurabilityStats;

/// Conservation-checked stage counters. Every event the stream injects
/// is accounted for exactly once; see [`WatchCounters::reconciles`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchCounters {
    /// Events pulled from the generator (the watermark).
    pub injected: u64,
    /// Events accepted into the ingest queue.
    pub accepted: u64,
    /// Registrations dropped at a full ingest queue.
    pub dropped_registrations: u64,
    /// Deregistrations dropped at a full ingest queue.
    pub dropped_churn: u64,
    /// Feed updates dropped at a full ingest queue.
    pub dropped_feed: u64,
    /// Events fully processed by the detect stage.
    pub processed: u64,
    /// Processed registrations.
    pub registrations: u64,
    /// Deregistrations that removed a tracked candidate.
    pub churn_hits: u64,
    /// Deregistrations for domains we were not tracking.
    pub churn_misses: u64,
    /// Feed updates naming a tracked candidate (the feed confirmed us).
    pub feed_hits: u64,
    /// Feed updates for domains we were not tracking.
    pub feed_misses: u64,
    /// Registrations the detector classified as squatting.
    pub detected: u64,
    /// Detect-stage stalls on a full candidate queue (the stalled batch
    /// tail is retried next tick, never dropped).
    pub detect_stalls: u64,
    /// Candidates discarded before their first crawl because the domain
    /// was deregistered while still queued.
    pub purged_candidates: u64,
    /// Candidates discarded at sweep time because the domain was
    /// already tracked or already in the sweep batch.
    pub duplicate_candidates: u64,
    /// Jobs submitted to the crawler (first crawls + re-crawls).
    pub crawl_jobs: u64,
    /// First crawls of fresh candidates.
    pub first_crawls: u64,
    /// Scheduled re-crawls of tracked candidates.
    pub recrawls: u64,
    /// Fresh candidates found live (tracked from then on).
    pub live_found: u64,
    /// Fresh candidates found dead.
    pub dead_found: u64,
    /// Tracked candidates that went dead on a re-crawl (takedown).
    pub takedowns: u64,
    /// Tracked candidates removed by a deregistration event.
    pub churn_takedowns: u64,
    /// Tracked candidates whose age crossed their blacklist lag.
    pub blacklisted: u64,
}

impl WatchCounters {
    /// Total events dropped at ingest.
    pub fn dropped(&self) -> u64 {
        self.dropped_registrations + self.dropped_churn + self.dropped_feed
    }

    /// The conservation identities, given the final queue depths:
    ///
    /// * injected == accepted + dropped (ingest accounting),
    /// * accepted == processed + ingest backlog (detect accounting),
    /// * processed == per-kind processed counts,
    /// * detected == first crawls + purged + duplicates + candidate
    ///   backlog (candidate accounting),
    /// * crawl jobs == first crawls + re-crawls.
    ///
    /// Checked declaratively against the exported telemetry
    /// (`squatphi_telemetry::invariants::watch_invariants`).
    pub fn reconciles(&self, ingest_depth: usize, candidate_depth: usize) -> bool {
        self.violations(ingest_depth, candidate_depth).is_empty()
    }

    /// The violated identities, if any — the structured report behind
    /// [`WatchCounters::reconciles`].
    pub fn violations(
        &self,
        ingest_depth: usize,
        candidate_depth: usize,
    ) -> Vec<squatphi_telemetry::Violation> {
        let reg = squatphi_telemetry::Registry::new();
        let watch = reg.scope("watch");
        self.export(&watch.scope("counters"));
        let queues = watch.scope("queues");
        queues.set_u64("ingest_depth", ingest_depth as u64);
        queues.set_u64("candidate_depth", candidate_depth as u64);
        squatphi_telemetry::invariants::watch_invariants()
            .check_all(&reg.snapshot())
            .err()
            .unwrap_or_default()
    }

    /// Publishes the counters into a telemetry scope (canonically
    /// `watch.counters`), in declaration order under sorted names.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        for (name, value) in self.fields() {
            scope.set_u64(name, value);
        }
    }

    /// Field names and values in declaration (JSON) order — the single
    /// source for export and encoding.
    pub(super) fn fields(&self) -> [(&'static str, u64); 23] {
        [
            ("injected", self.injected),
            ("accepted", self.accepted),
            ("dropped_registrations", self.dropped_registrations),
            ("dropped_churn", self.dropped_churn),
            ("dropped_feed", self.dropped_feed),
            ("processed", self.processed),
            ("registrations", self.registrations),
            ("churn_hits", self.churn_hits),
            ("churn_misses", self.churn_misses),
            ("feed_hits", self.feed_hits),
            ("feed_misses", self.feed_misses),
            ("detected", self.detected),
            ("detect_stalls", self.detect_stalls),
            ("purged_candidates", self.purged_candidates),
            ("duplicate_candidates", self.duplicate_candidates),
            ("crawl_jobs", self.crawl_jobs),
            ("first_crawls", self.first_crawls),
            ("recrawls", self.recrawls),
            ("live_found", self.live_found),
            ("dead_found", self.dead_found),
            ("takedowns", self.takedowns),
            ("churn_takedowns", self.churn_takedowns),
            ("blacklisted", self.blacklisted),
        ]
    }

    /// The inverse of [`WatchCounters::fields`]: builds the counters from
    /// a by-name lookup (`None` as soon as a field is missing).
    pub(super) fn from_fields(n: impl Fn(&str) -> Option<u64>) -> Option<Self> {
        Some(WatchCounters {
            injected: n("injected")?,
            accepted: n("accepted")?,
            dropped_registrations: n("dropped_registrations")?,
            dropped_churn: n("dropped_churn")?,
            dropped_feed: n("dropped_feed")?,
            processed: n("processed")?,
            registrations: n("registrations")?,
            churn_hits: n("churn_hits")?,
            churn_misses: n("churn_misses")?,
            feed_hits: n("feed_hits")?,
            feed_misses: n("feed_misses")?,
            detected: n("detected")?,
            detect_stalls: n("detect_stalls")?,
            purged_candidates: n("purged_candidates")?,
            duplicate_candidates: n("duplicate_candidates")?,
            crawl_jobs: n("crawl_jobs")?,
            first_crawls: n("first_crawls")?,
            recrawls: n("recrawls")?,
            live_found: n("live_found")?,
            dead_found: n("dead_found")?,
            takedowns: n("takedowns")?,
            churn_takedowns: n("churn_takedowns")?,
            blacklisted: n("blacklisted")?,
        })
    }
}

/// One rolling metrics snapshot, emitted after every crawl sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchMetrics {
    /// Tick the snapshot was taken at.
    pub tick: u64,
    /// Events injected so far.
    pub injected: u64,
    /// Events processed so far.
    pub processed: u64,
    /// Ingest queue depth.
    pub ingest_depth: u64,
    /// Candidate queue depth.
    pub candidate_depth: u64,
    /// Drops so far.
    pub dropped: u64,
    /// Detect stalls so far.
    pub stalls: u64,
    /// Squatting registrations detected so far.
    pub detected: u64,
    /// Currently tracked live candidates.
    pub tracked: u64,
    /// Tracked candidates blacklists have caught so far.
    pub blacklisted: u64,
}

/// What a watch run produced. Everything here is deterministic —
/// [`WatchSummary::to_json`] is byte-identical for identical
/// `(config, stop point)` at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSummary {
    /// Stream + world seed.
    pub seed: u64,
    /// Configured stream length.
    pub events: u64,
    /// Whether the run stopped early at `stop_after`.
    pub interrupted: bool,
    /// Next event index (events injected so far).
    pub watermark: u64,
    /// Final tick.
    pub tick: u64,
    /// Order-stable digest of the full daemon state (queues, tracked
    /// set, schedule, counters, transport, metrics history). A resumed
    /// run must reproduce the uninterrupted run's value exactly.
    pub state_fingerprint: u64,
    /// Stage counters.
    pub counters: WatchCounters,
    /// Final ingest backlog.
    pub ingest_depth: u64,
    /// Final candidate backlog.
    pub candidate_depth: u64,
    /// Tracked live candidates at shutdown.
    pub tracked: u64,
    /// Re-crawls still scheduled at shutdown.
    pub pending_recrawls: u64,
    /// Accumulated transport-stack counters over every sweep.
    pub transport: TransportSnapshot,
    /// Rolling per-sweep metrics history.
    pub metrics: Vec<WatchMetrics>,
    /// Whether this run restored state from a checkpoint. Deliberately
    /// not part of [`WatchSummary::to_json`]: a resumed run's JSON must
    /// stay byte-identical to the uninterrupted run's.
    pub resumed: bool,
    /// Damage classification when the resume had to skip damaged
    /// generations and recover from an older one (e.g. `g4 torn`).
    /// Surfaced on stderr by the CLI, never in the JSON summary.
    pub recovered_checkpoint: Option<String>,
    /// Durable-store ledger for the run (zero when persistence is off).
    /// Exported under `durability.` in [`WatchSummary::telemetry`];
    /// excluded from the JSON summary for the same byte-identity reason.
    pub durability: DurabilityStats,
}

impl WatchSummary {
    /// Whether the queue accounting reconciles exactly.
    pub fn reconciles(&self) -> bool {
        self.counters
            .reconciles(self.ingest_depth as usize, self.candidate_depth as usize)
    }

    /// One-line human report.
    pub fn report_line(&self) -> String {
        let c = &self.counters;
        format!(
            "{} events ({} dropped, {} stalls), {} detected, {} live, {} takedowns, {} blacklisted [{}]",
            c.injected,
            c.dropped(),
            c.detect_stalls,
            c.detected,
            self.tracked,
            c.takedowns + c.churn_takedowns,
            c.blacklisted,
            if self.reconciles() { "reconciled" } else { "UNRECONCILED" },
        )
    }

    /// Exports everything into a fresh telemetry registry: run header and
    /// queue gauges under `watch.`, stage counters under `watch.counters.`,
    /// transport counters under `watch.transport.`, and the per-sweep
    /// history length under `watch.sweeps`. [`WatchSummary::to_json`] reads
    /// back from the snapshot of this registry, so the summary is a typed
    /// view over it, not a parallel bookkeeping system.
    pub fn telemetry(&self) -> squatphi_telemetry::Registry {
        let reg = squatphi_telemetry::Registry::new();
        let watch = reg.scope("watch");
        watch.set_u64("seed", self.seed);
        watch.set_u64("events", self.events);
        watch.set_bool("interrupted", self.interrupted);
        watch.set_u64("watermark", self.watermark);
        watch.set_u64("tick", self.tick);
        watch.set_u64("state_fingerprint", self.state_fingerprint);
        watch.set_bool("reconciles", self.reconciles());
        watch.set_u64("sweeps", self.metrics.len() as u64);
        self.counters.export(&watch.scope("counters"));
        let queues = watch.scope("queues");
        queues.set_u64("ingest_depth", self.ingest_depth);
        queues.set_u64("candidate_depth", self.candidate_depth);
        queues.set_u64("tracked", self.tracked);
        queues.set_u64("pending_recrawls", self.pending_recrawls);
        self.transport.export(&watch.scope("transport"));
        self.durability.export(&reg.scope("durability"));
        reg
    }

    /// Deterministic pretty-printed JSON (stable field order, no
    /// wall-clock anywhere), rendered by the shared telemetry encoder
    /// from the exported registry snapshot. Equivalent to
    /// [`WatchSummary::to_json_with_timings`]`(false)`.
    pub fn to_json(&self) -> String {
        self.to_json_with_timings(false)
    }

    /// Like [`WatchSummary::to_json`] but with the workspace-wide
    /// `--timings` rule applied explicitly: unless `timings` is set, any
    /// timing-named entry in the exported snapshot is zeroed. The watch
    /// registry holds no wall-clock values today (`backoff_ns` is virtual
    /// simulated-clock time, deliberately not a timing name), so both
    /// forms currently render identically — the flag exists so every
    /// `--json` surface obeys one rule, including any timing metric a
    /// later change exports here.
    pub fn to_json_with_timings(&self, timings: bool) -> String {
        use squatphi_telemetry::Json;
        let mut snap = self.telemetry().snapshot();
        if !timings {
            snap.strip_timings();
        }
        let mut header = Json::obj();
        for leaf in [
            "seed",
            "events",
            "interrupted",
            "watermark",
            "tick",
            "state_fingerprint",
            "reconciles",
        ] {
            header.push(leaf, snap.json_value(&format!("watch.{leaf}")));
        }
        let mut counters = Json::obj();
        for (name, _) in self.counters.fields() {
            counters.push(name, snap.json_value(&format!("watch.counters.{name}")));
        }
        let mut queues = Json::obj();
        for leaf in [
            "ingest_depth",
            "candidate_depth",
            "tracked",
            "pending_recrawls",
        ] {
            queues.push(leaf, snap.json_value(&format!("watch.queues.{leaf}")));
        }
        let mut transport = Json::obj();
        for leaf in ["attempts", "successes", "retries", "backoff_ns"] {
            transport.push(leaf, snap.json_value(&format!("watch.transport.{leaf}")));
        }
        transport.push(
            "errors",
            Json::Arr(
                ["timeout", "refused", "truncated", "injected"]
                    .iter()
                    .map(|class| snap.json_value(&format!("watch.transport.errors.{class}")))
                    .collect(),
            ),
        );
        for leaf in ["breaker_trips", "breaker_short_circuits"] {
            transport.push(leaf, snap.json_value(&format!("watch.transport.{leaf}")));
        }
        let mut doc = Json::obj();
        doc.push("watch", header);
        doc.push("counters", counters);
        doc.push("queues", queues);
        doc.push("transport", transport);
        doc.push(
            "metrics",
            Json::Arr(self.metrics.iter().map(WatchMetrics::to_json).collect()),
        );
        let mut out = doc.render();
        out.push('\n');
        out
    }
}

impl WatchMetrics {
    /// Field names and values in declaration (JSON) order — the single
    /// source for the JSON view, the fingerprint and the checkpoint row.
    pub(super) fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("tick", self.tick),
            ("injected", self.injected),
            ("processed", self.processed),
            ("ingest_depth", self.ingest_depth),
            ("candidate_depth", self.candidate_depth),
            ("dropped", self.dropped),
            ("stalls", self.stalls),
            ("detected", self.detected),
            ("tracked", self.tracked),
            ("blacklisted", self.blacklisted),
        ]
    }

    /// The inverse of [`WatchMetrics::fields`], from the values alone.
    pub(super) fn from_values(v: [u64; 10]) -> Self {
        let [tick, injected, processed, ingest_depth, candidate_depth, dropped, stalls, detected, tracked, blacklisted] =
            v;
        WatchMetrics {
            tick,
            injected,
            processed,
            ingest_depth,
            candidate_depth,
            dropped,
            stalls,
            detected,
            tracked,
            blacklisted,
        }
    }

    /// One per-sweep snapshot as a JSON object (shared-encoder leaf of
    /// [`WatchSummary::to_json`]'s `metrics` array).
    pub fn to_json(&self) -> squatphi_telemetry::Json {
        use squatphi_telemetry::Json;
        let mut obj = Json::obj();
        for (name, value) in self.fields() {
            obj.push(name, Json::U64(value));
        }
        obj
    }
}
