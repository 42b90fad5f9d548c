//! `repro_batch`: the job `repro` runs — one `SquatPhi::try_run` over a
//! scaled paper configuration (scan → crawl → train → detect).
//!
//! Page analysis (render → pHash → OCR → embed) and ml dominate; the
//! scan is a few percent and the crawl under one. A scan or crawl change
//! should not move this workload; a pHash, embed or forest change should.

use super::{digest, time_reps, Checks, Metrics, Scale, Workload};
use crate::spec::THREADS;
use crate::tracer::Tracer;
use squatphi::{PipelineError, PipelineResult, RunOptions, SimConfig, SquatPhi, StageTimings};
use squatphi_crawler::{
    crawl_all, CircuitBreakerPolicy, CrawlConfig, InProcessTransport, RetryPolicy, TransportStack,
};
use squatphi_dnsdb::synth;
use squatphi_feeds::GroundTruthFeed;
use squatphi_squat::{BrandRegistry, SquatType};
use squatphi_web::{Device, WebWorld};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Haystack divisor of the full size: 1/2400 of the paper's 224.8M
/// records (93k records, 274 squatting domains, ~550 crawled pages),
/// with the ground-truth feed cut from 6,755 to 1,000 URLs and the
/// sampled benign pages from 1,565 to 250, so one pass is ~1.7 s and a
/// run fits seven. Stage shares match `repro`'s default 1/100 scale:
/// scan ~5 %, crawl <1 %, the rest train + detect.
const DIVISOR: usize = 2400;
const FEED_URLS: usize = 1_000;
const SAMPLED_BENIGN: usize = 250;

/// A squatting domain the scan found: `(domain, brand, type, ip)`.
type Squat = (String, usize, SquatType, Ipv4Addr);

/// The workload's input: a run configuration.
pub struct ReproBatch {
    config: SimConfig,
    digest: u64,
    records: u64,
    feed_urls: u64,
}

/// What is kept of one `try_run`.
pub struct Pass {
    fingerprint: u64,
    timings: StageTimings,
    pages: u64,
    cache_hits: u64,
    squats: Vec<Squat>,
}

fn config(seed: u64, scale: Scale) -> SimConfig {
    let mut c = scale.pick(SimConfig::paper_scale(DIVISOR), SimConfig::micro());
    if scale == Scale::Full {
        c.feed.total_urls = FEED_URLS;
        c.sampled_benign = SAMPLED_BENIGN;
    }
    c.threads = THREADS;
    c.seed = seed;
    c.snapshot.seed = seed.wrapping_add(1);
    c.world.seed = seed.wrapping_add(2);
    c.feed.seed = seed.wrapping_add(3);
    c
}

impl Workload for ReproBatch {
    const NAME: &'static str = "repro_batch";
    type Raw = Result<PipelineResult, PipelineError>;
    type Pass = Option<Pass>;

    /// `try_run` synthesises its own snapshot and feed from the
    /// configuration's seeds; set-up generates the same two inputs only
    /// to digest the bytes the run will see.
    fn setup(seed: u64, scale: Scale) -> Self {
        let config = config(seed, scale);
        let registry = BrandRegistry::with_size(config.brands);
        let (store, _) = synth::generate(&config.snapshot, &registry);
        let feed = GroundTruthFeed::generate(&registry, &config.feed);
        let zone = store.to_zone();
        let digest = digest(
            seed,
            std::iter::once(zone.as_bytes()).chain(feed.entries.iter().map(|e| e.html.as_bytes())),
        );
        ReproBatch {
            digest,
            records: store.len() as u64,
            feed_urls: feed.entries.len() as u64,
            config,
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("dns_records", self.records),
            (
                "squatting_records",
                self.config.snapshot.squatting_records as u64,
            ),
            ("feed_urls", self.feed_urls),
            ("sampled_benign", self.config.sampled_benign as u64),
            ("brands", self.config.brands as u64),
            ("cv_folds", self.config.cv_folds as u64),
        ]
    }

    fn pass(&self, tr: &mut Tracer) -> Self::Raw {
        let result = tr.span("core.try_run", |_| {
            SquatPhi::try_run(&self.config, &RunOptions::default())
        });
        // The four stages run back to back inside the call; lay the
        // durations it reports out as children so the span's self time is
        // what no stage accounts for.
        if let (Ok(r), Some(id)) = (&result, tr.last("core.try_run").map(|s| s.id)) {
            tr.record_stages(
                id,
                &[
                    ("pipeline.scan", r.timings.scan),
                    ("pipeline.crawl", r.timings.crawl),
                    ("pipeline.train", r.timings.train),
                    ("pipeline.detect", r.timings.detect),
                ],
            );
        }
        result
    }

    fn inspect(&self, raw: Self::Raw, checks: &mut Checks) -> Self::Pass {
        let result = match raw {
            Ok(r) => r,
            Err(e) => {
                checks.require(false, &format!("try_run failed: {e:?}"));
                return None;
            }
        };
        let invariants = result.check_invariants();
        checks.require(
            invariants.is_ok(),
            &format!("check_invariants: {invariants:?}"),
        );
        Some(Pass {
            fingerprint: result.fingerprint(),
            timings: result.timings,
            pages: result.analysis.pages,
            cache_hits: result.analysis.cache_hits,
            squats: result
                .scan
                .matches
                .iter()
                .map(|m| (m.domain.registrable(), m.brand, m.squat_type, m.ip))
                .collect(),
        })
    }

    /// Pages analysed: what the pass spends its time on.
    fn items(&self, pass: &Self::Pass) -> u64 {
        pass.as_ref().map(|p| p.pages).unwrap_or(0)
    }

    fn finish(&self, passes: &[Self::Pass], checks: &mut Checks, detail: &mut Metrics) {
        let Some(first) = passes[0].as_ref() else {
            return;
        };
        for (i, p) in passes.iter().enumerate().skip(1) {
            checks.require(
                p.as_ref().map(|p| p.fingerprint) == Some(first.fingerprint),
                &format!("fingerprint of pass {i} differs from pass 0"),
            );
        }
        detail.set("pages", first.pages as f64, "count");
        detail.set("squatting_domains", first.squats.len() as f64, "count");
    }

    fn layers(
        &self,
        tr: &mut Tracer,
        traced: &Self::Pass,
        checks: &mut Checks,
        layers: &mut Metrics,
    ) {
        let Some(traced) = traced else {
            return;
        };
        let t = &traced.timings;
        let root_s = tr
            .last("core.try_run")
            .map(|s| s.duration_ns() as f64 / 1e9)
            .unwrap_or(0.0);
        layers.set("pipeline.scan_s", t.scan.as_secs_f64(), "s");
        layers.set("pipeline.crawl_s", t.crawl.as_secs_f64(), "s");
        layers.set("pipeline.train_s", t.train.as_secs_f64(), "s");
        layers.set("pipeline.detect_s", t.detect.as_secs_f64(), "s");
        layers.set(
            "pipeline.unattributed_share",
            1.0 - t.total().as_secs_f64() / root_s,
            "ratio",
        );
        layers.set(
            "pipeline.cache_hit_rate",
            traced.cache_hits as f64 / traced.pages as f64,
            "ratio",
        );

        // The same run on one thread: the serial baseline, and the
        // fingerprint must not depend on the thread count.
        let single = SimConfig {
            threads: 1,
            ..self.config.clone()
        };
        let (result, t1_s) = tr.timed("core.try_run_t1", || {
            SquatPhi::try_run(&single, &RunOptions::default())
        });
        layers.set("pipeline.t1_wall_s", t1_s, "s");
        checks.require(
            result.map(|r| r.fingerprint()).ok() == Some(traced.fingerprint),
            "fingerprint at threads=1 differs from threads=2",
        );

        // web and crawler on the squatting set the traced run found.
        let registry = BrandRegistry::with_size(self.config.brands);
        let squats = &traced.squats;
        let (world, build_s) = tr.timed("web.world_build", || {
            WebWorld::build(squats, &registry, &self.config.world)
        });
        layers.set("web.world_build_ms", build_s * 1e3, "ms");
        let serve_s = tr.span("web.serve", |_| {
            time_reps(0.2, || {
                for (domain, ..) in squats {
                    std::hint::black_box(world.serve(domain, Device::Web, 0));
                    std::hint::black_box(world.serve(domain, Device::Mobile, 0));
                }
            })
        });
        layers.set(
            "web.serve_ns_per_fetch",
            serve_s * 1e9 / (2 * squats.len()) as f64,
            "ns",
        );

        let world = Arc::new(world);
        let jobs: Vec<(String, usize, SquatType)> = squats
            .iter()
            .map(|(d, b, t, _)| (d.clone(), *b, *t))
            .collect();
        let cfg = CrawlConfig::builder()
            .workers(THREADS)
            .snapshot(0)
            .build()
            .expect("two workers, snapshot 0 is a valid crawl config");
        let plain_s = tr.span("crawler.plain", |_| {
            time_reps(0.3, || {
                let transport = InProcessTransport::new(world.clone());
                let (records, _) = crawl_all(&jobs, &registry, &transport, &cfg);
                assert_eq!(records.len(), jobs.len());
            })
        });
        layers.set(
            "crawler.plain_domains_per_s",
            jobs.len() as f64 / plain_s,
            "1/s",
        );
        // The middleware stack `watch` crawls through.
        let mut transport = Default::default();
        let stack_s = tr.span("crawler.stack", |_| {
            time_reps(0.3, || {
                let stack = TransportStack::new(InProcessTransport::new(world.clone()))
                    .retry(RetryPolicy::default())
                    .breaker(CircuitBreakerPolicy::default())
                    .build();
                let (records, stats) = crawl_all(&jobs, &registry, &stack, &cfg);
                assert_eq!(records.len(), jobs.len());
                transport = stats.transport;
            })
        });
        layers.set(
            "crawler.stack_domains_per_s",
            jobs.len() as f64 / stack_s,
            "1/s",
        );
        layers.set(
            "crawler.attempts_per_success",
            transport.attempts as f64 / transport.successes.max(1) as f64,
            "ratio",
        );
        layers.set("crawler.retries", transport.retries as f64, "count");
        layers.set(
            "crawler.breaker_trips",
            transport.breaker_trips as f64,
            "count",
        );
        tr.count("crawler.attempts", transport.attempts as f64);
        tr.count("crawler.successes", transport.successes as f64);
    }
}
