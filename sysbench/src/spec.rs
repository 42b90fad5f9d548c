//! The benchmark's contract in one table: workload names, end-to-end
//! metrics with their bounds, and per-layer metrics with the workload
//! that measures each and the end-to-end metric each should move.
//! `BENCHMARK.json` at the repository root restates the first three
//! columns; `tests/contract.rs` fails if the two drift apart.

/// Library worker threads, everywhere (the sandbox has two cores).
pub const THREADS: usize = 2;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2018;

/// Seconds measured when `--seconds` is not given (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Times set-up is repeated at least; the median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// A short set-up is repeated until this many seconds have gone by...
pub const SETUP_MIN_S: f64 = 0.5;

/// ...or it has run this many times.
pub const SETUP_MAX_REPS: usize = 25;

/// A workload: `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "repro_batch",
        "The batch job `repro` runs (scan, crawl, train, detect); page analysis and ml dominate, so a scan or crawl change should not move it.",
    ),
    (
        "haystack_scan",
        "The `squatphi scan <zone>` path at haystack size: zone text to squatting matches; pages, ml and crawler do no work.",
    ),
    (
        "page_audit",
        "The `squatphi page` path one page at a time, all-miss then all-hit on the artifact cache, so a cache change that helps one and costs the other shows.",
    ),
    (
        "visual_lookup",
        "pHash index build over 1M hashes and brand queries at radius 8 (the system's match radius) and 16 (the paper's obfuscation band); nothing else runs.",
    ),
    (
        "watch_stream",
        "The watch daemon's tick loop (events, classify batches, crawl sweeps through retry and breaker) with durability off.",
    ),
    (
        "watch_durable",
        "The same stream with checkpoint writes, an interruption and a resume; a checkpoint change shows here and must leave watch_stream flat.",
    ),
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric; every workload reports every one.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it means.
    pub what: &'static str,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall of one set-up (input synthesis from the seed, detector/model/index inputs, reference answers)",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "wall of the fastest pass of the workload (interference from other tenants only adds time)",
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "the workload's items (pages, records, queries, events) per pass divided by wall_s",
    },
    EndToEnd {
        name: "cpu_s_per_pass",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "user + system CPU seconds of the process in its cheapest pass, so wall time bought with more CPU shows",
    },
];

/// A per-layer metric, taken in the traced run of `workload`.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workload whose traced run measures it; other workloads
    /// report 0 because they never enter the layer.
    pub workload: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        workload,
        moves,
    }
}

use Better::{Higher, Lower};

const SCAN: &str = "items_per_s, wall_s @ haystack_scan";
const PAGE_COLD: &str = "page.cold_pages_per_s -> wall_s @ page_audit; wall_s @ repro_batch";
const VISUAL: &str = "items_per_s, wall_s @ visual_lookup; nothing elsewhere";
const REPRO: &str = "wall_s @ repro_batch";
const STREAM: &str = "items_per_s @ watch_stream";
const DURABLE: &str = "items_per_s @ watch_durable; must not move watch_stream";

/// `trace.*` metrics are measured by every workload.
pub const EVERY: &str = "*";

/// The per-layer metrics.
pub const PER_LAYER: [PerLayer; 87] = [
    // dnswire
    pl("dnswire.zone_parse_records_per_s", "1/s", Higher, "haystack_scan", SCAN),
    pl("dnswire.zone_format_records_per_s", "1/s", Higher, "haystack_scan", "setup_s @ haystack_scan"),
    // domain
    pl("domain.parse_ns_per_name", "ns", Lower, "haystack_scan", SCAN),
    // squat
    pl("squat.detector_build_ms", "ms", Lower, "haystack_scan", "setup_s @ haystack_scan; wall_s @ watch_stream"),
    pl("squat.classify_ns_per_name", "ns", Lower, "haystack_scan", "items_per_s @ haystack_scan, watch_stream"),
    pl("squat.probes_per_record", "count", Lower, "haystack_scan", SCAN),
    pl("squat.deep_probe_share", "ratio", Lower, "haystack_scan", SCAN),
    // dnsdb
    pl("dnsdb.synth_records_per_s", "1/s", Higher, "haystack_scan", "setup_s @ haystack_scan; pipeline.scan_s @ repro_batch"),
    pl("dnsdb.from_zone_records_per_s", "1/s", Higher, "haystack_scan", SCAN),
    pl("dnsdb.scan_records_per_s", "1/s", Higher, "haystack_scan", SCAN),
    pl("dnsdb.scan_t1_records_per_s", "1/s", Higher, "haystack_scan", SCAN),
    pl("dnsdb.scan_speedup", "ratio", Higher, "haystack_scan", SCAN),
    pl("dnsdb.event_ns_per_event", "ns", Lower, "watch_stream", STREAM),
    // web
    pl("web.world_build_ms", "ms", Lower, "repro_batch", "pipeline.crawl_s -> wall_s @ repro_batch (tiny)"),
    pl("web.serve_ns_per_fetch", "ns", Lower, "repro_batch", "wall_s @ repro_batch (tiny); items_per_s @ watch_stream"),
    // crawler
    pl("crawler.plain_domains_per_s", "1/s", Higher, "repro_batch", "pipeline.crawl_s; no move expected on wall_s @ repro_batch"),
    pl("crawler.stack_domains_per_s", "1/s", Higher, "repro_batch", "items_per_s @ watch_stream, watch_durable"),
    pl("crawler.attempts_per_success", "ratio", Lower, "repro_batch", "items_per_s @ watch_stream"),
    pl("crawler.retries", "count", Lower, "repro_batch", "items_per_s @ watch_stream"),
    pl("crawler.breaker_trips", "count", Lower, "repro_batch", "items_per_s @ watch_stream"),
    // feeds
    pl("feeds.generate_ms", "ms", Lower, "page_audit", "setup_s @ page_audit; pipeline.train_s @ repro_batch"),
    // page analysis stages
    pl("html.parse_us_per_page", "us", Lower, "page_audit", PAGE_COLD),
    pl("html.extract_us_per_page", "us", Lower, "page_audit", PAGE_COLD),
    pl("render.us_per_page", "us", Lower, "page_audit", PAGE_COLD),
    pl("imghash.phash_us_per_page", "us", Lower, "page_audit", PAGE_COLD),
    pl("ocr.us_per_page", "us", Lower, "page_audit", PAGE_COLD),
    pl("nlp.embed_us_per_page", "us", Lower, "page_audit", "page.cold_pages_per_s and page.warm_pages_per_s -> wall_s @ page_audit; wall_s @ repro_batch"),
    // imghash::index
    pl("imghash.index_build_s", "s", Lower, "visual_lookup", VISUAL),
    pl("imghash.r8_queries_per_s", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.r16_queries_per_s", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.r8_query_p50_us", "us", Lower, "visual_lookup", VISUAL),
    pl("imghash.r8_query_tail_us", "us", Lower, "visual_lookup", VISUAL),
    pl("imghash.within_qps_r0", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.within_qps_r4", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.within_qps_r8", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.within_qps_r12", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.within_qps_r16", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.within_qps_r20", "1/s", Higher, "visual_lookup", VISUAL),
    pl("imghash.linear_qps", "1/s", Higher, "visual_lookup", "the oracle the index is compared with; moves nothing"),
    pl("imghash.probes_per_query_r8", "count", Lower, "visual_lookup", VISUAL),
    pl("imghash.probes_per_query_r16", "count", Lower, "visual_lookup", VISUAL),
    pl("imghash.verified_share", "ratio", Higher, "visual_lookup", VISUAL),
    pl("imghash.fallbacks", "count", Lower, "visual_lookup", VISUAL),
    // ml
    pl("ml.cv_s", "s", Lower, "page_audit", "pipeline.train_s -> wall_s @ repro_batch"),
    pl("ml.fit_s", "s", Lower, "page_audit", "pipeline.train_s -> wall_s @ repro_batch; setup_s @ page_audit"),
    pl("ml.score_us_per_page", "us", Lower, "page_audit", "wall_s @ page_audit; pipeline.detect_s @ repro_batch"),
    // core::artifact
    pl("artifact.analyze_miss_us", "us", Lower, "page_audit", "page.cold_pages_per_s -> wall_s @ page_audit"),
    pl("artifact.analyze_hit_us", "us", Lower, "page_audit", "page.warm_pages_per_s -> wall_s @ page_audit"),
    pl("artifact.hit_rate", "ratio", Higher, "page_audit", "fixed at 0.5 by the workload's design; a move is a bug"),
    pl("artifact.collisions", "count", Lower, "page_audit", "wall_s @ page_audit"),
    // core::features
    pl("features.batch_pages_per_s", "1/s", Higher, "page_audit", REPRO),
    pl("features.batch_t1_pages_per_s", "1/s", Higher, "page_audit", "wall_s @ repro_batch (with the one above, shows the sequential embed stage)"),
    // the `squatphi page` path as the user sees it
    pl("page.cold_pages_per_s", "1/s", Higher, "page_audit", "wall_s, items_per_s @ page_audit"),
    pl("page.warm_pages_per_s", "1/s", Higher, "page_audit", "wall_s, items_per_s @ page_audit"),
    pl("page.p50_ms", "ms", Lower, "page_audit", "wall_s @ page_audit"),
    pl("page.tail_ms", "ms", Lower, "page_audit", "wall_s @ page_audit"),
    // core::pipeline
    pl("pipeline.scan_s", "s", Lower, "repro_batch", REPRO),
    pl("pipeline.crawl_s", "s", Lower, "repro_batch", REPRO),
    pl("pipeline.train_s", "s", Lower, "repro_batch", REPRO),
    pl("pipeline.detect_s", "s", Lower, "repro_batch", REPRO),
    pl("pipeline.t1_wall_s", "s", Lower, "repro_batch", REPRO),
    pl("pipeline.unattributed_share", "ratio", Lower, "repro_batch", REPRO),
    pl("pipeline.cache_hit_rate", "ratio", Higher, "repro_batch", REPRO),
    // core::stream
    pl("stream.ticks", "count", Lower, "watch_stream", STREAM),
    pl("stream.t1_events_per_s", "1/s", Higher, "watch_stream", "the one-thread baseline items_per_s @ watch_stream is compared with"),
    pl("stream.crawl_jobs", "count", Lower, "watch_stream", STREAM),
    pl("stream.drop_share", "ratio", Lower, "watch_stream", STREAM),
    pl("stream.stall_share", "ratio", Lower, "watch_stream", STREAM),
    pl("stream.max_ingest_depth", "count", Lower, "watch_stream", STREAM),
    pl("stream.transport_attempts", "count", Lower, "watch_stream", STREAM),
    pl("stream.ledger_divergences", "count", Lower, "watch_stream", "two-thread passes whose state_fingerprint differs from the one-thread run's; not 0 is the known transport-ledger race"),
    // core::checkpoint + durability
    pl("checkpoint.writes", "count", Lower, "watch_durable", DURABLE),
    pl("checkpoint.bytes_written", "bytes", Lower, "watch_durable", DURABLE),
    pl("checkpoint.final_state_bytes", "bytes", Lower, "watch_durable", DURABLE),
    pl("checkpoint.bytes_per_event", "bytes", Lower, "watch_durable", DURABLE),
    pl("checkpoint.overhead_share", "ratio", Lower, "watch_durable", DURABLE),
    pl("checkpoint.interrupted_s", "s", Lower, "watch_durable", DURABLE),
    pl("checkpoint.resume_s", "s", Lower, "watch_durable", DURABLE),
    pl("durability.reads", "count", Lower, "watch_durable", DURABLE),
    pl("durability.recovered", "count", Lower, "watch_durable", "0 on a healthy disk; a move is a bug"),
    // the process (every workload runs in a process of its own)
    pl("process.peak_rss_mb", "MB", Lower, EVERY, "memory the path needs; steady to 2 % except on watch_*, where it follows the seed"),
    pl("process.user_cpu_s", "s", Lower, EVERY, "cpu_s_per_pass @ the same workload: the traced pass's user share"),
    pl("process.sys_cpu_s", "s", Lower, EVERY, "cpu_s_per_pass @ the same workload: the traced pass's system share (thread spawn per sweep shows here on watch_*)"),
    // the benchmark itself
    pl("trace.root_s", "s", Lower, EVERY, "wall_s @ the same workload"),
    pl("trace.self_s", "s", Lower, EVERY, "time of the traced pass no child span accounts for"),
    pl("trace.overhead_share", "ratio", Lower, EVERY, "traced pass wall / untraced pass wall - 1"),
    pl("trace.spans", "count", Lower, EVERY, "spans recorded in the traced run"),
];
