//! The crawl loop: work queue, worker pool, redirect following,
//! destination classification.

use crate::metrics::TransportMetrics;
use crate::stats::CrawlStats;
use crate::transport::Transport;
use squatphi_domain::url::host_of;
use squatphi_html::parse;
use squatphi_render::{render_page, Bitmap, RenderOptions};
use squatphi_squat::{BrandId, BrandRegistry, SquatType};
use squatphi_telemetry::par_map;
use squatphi_web::world::MARKETPLACES;
use squatphi_web::{Device, ServeResult};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Validated crawl parameters; build one with [`CrawlConfig::builder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlConfig {
    workers: usize,
    max_redirects: usize,
    snapshot: u8,
    retries: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            workers: 8,
            max_redirects: 5,
            snapshot: 0,
            retries: 1,
        }
    }
}

impl CrawlConfig {
    /// Starts a builder pre-loaded with the default values.
    pub fn builder() -> CrawlConfigBuilder {
        CrawlConfigBuilder::default()
    }

    /// Upper bound on crawl worker threads; a batch uses one per 32 jobs
    /// it holds, so small batches run on the caller alone.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Redirect budget per page.
    pub fn max_redirects(&self) -> usize {
        self.max_redirects
    }

    /// Snapshot index being crawled.
    pub fn snapshot(&self) -> u8 {
        self.snapshot
    }

    /// Additional engine-level fetch attempts on failure (0 = no retry).
    /// The paper's crawler sends "1-2 requests for each scan" —
    /// transient failures get one more chance before a domain is
    /// recorded dead. Middleware retry budgets
    /// ([`RetryPolicy`](crate::middleware::RetryPolicy)) stack on top.
    pub fn retries(&self) -> usize {
        self.retries
    }
}

/// Validating builder for [`CrawlConfig`].
///
/// ```
/// # use squatphi_crawler::crawl::CrawlConfig;
/// let cfg = CrawlConfig::builder().workers(8).retries(1).build().unwrap();
/// assert_eq!(cfg, CrawlConfig::default());
/// assert!(CrawlConfig::builder().workers(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CrawlConfigBuilder {
    workers: usize,
    max_redirects: usize,
    snapshot: u8,
    retries: usize,
}

impl Default for CrawlConfigBuilder {
    fn default() -> Self {
        let d = CrawlConfig::default();
        CrawlConfigBuilder {
            workers: d.workers,
            max_redirects: d.max_redirects,
            snapshot: d.snapshot,
            retries: d.retries,
        }
    }
}

impl CrawlConfigBuilder {
    /// Upper bound on worker threads (must be >= 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Redirect budget per page (must be >= 1).
    pub fn max_redirects(mut self, n: usize) -> Self {
        self.max_redirects = n;
        self
    }

    /// Snapshot index to crawl.
    pub fn snapshot(mut self, s: u8) -> Self {
        self.snapshot = s;
        self
    }

    /// Engine-level retry budget (0 = no retry).
    pub fn retries(mut self, n: usize) -> Self {
        self.retries = n;
        self
    }

    /// Validates and builds the config.
    pub fn build(self) -> Result<CrawlConfig, CrawlConfigError> {
        if self.workers == 0 {
            return Err(CrawlConfigError::ZeroWorkers);
        }
        if self.max_redirects == 0 {
            return Err(CrawlConfigError::ZeroRedirects);
        }
        Ok(CrawlConfig {
            workers: self.workers,
            max_redirects: self.max_redirects,
            snapshot: self.snapshot,
            retries: self.retries,
        })
    }
}

/// Rejected [`CrawlConfigBuilder`] combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlConfigError {
    /// `workers` must be at least 1 — a crawl with no workers hangs.
    ZeroWorkers,
    /// `max_redirects` must be at least 1 — the paper's crawler always
    /// follows at least one hop to classify redirect games.
    ZeroRedirects,
}

impl std::fmt::Display for CrawlConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlConfigError::ZeroWorkers => f.write_str("crawl config: workers must be >= 1"),
            CrawlConfigError::ZeroRedirects => {
                f.write_str("crawl config: max_redirects must be >= 1")
            }
        }
    }
}

impl std::error::Error for CrawlConfigError {}

/// Where a redirect chain ends, classified as in Tables 2-4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectClass {
    /// No redirect at all.
    None,
    /// Ends on the impersonated brand's own domain.
    Original,
    /// Ends on a known domain marketplace.
    Market,
    /// Ends somewhere else.
    Other,
}

/// One captured page (per device profile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageCapture {
    /// Host that finally served the page.
    pub final_host: String,
    /// The HTML body.
    pub html: String,
    /// Redirect hops taken (hosts).
    pub redirects: Vec<String>,
}

impl PageCapture {
    /// Renders the screenshot for this capture (lazily — bitmaps are too
    /// large to keep for a full crawl).
    pub fn render(&self) -> Bitmap {
        render_page(&parse(&self.html), &RenderOptions::default())
    }
}

/// What the crawl concluded about one `(domain, device)` pair — the
/// structured replacement for ad-hoc boolean liveness probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlOutcome {
    /// A page was captured.
    Live,
    /// Redirect hops were observed but the final host never served a
    /// page (the capture's HTML is empty).
    TruncatedChain,
    /// Nothing came back: the domain is recorded dead.
    Dead,
}

impl std::fmt::Display for CrawlOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrawlOutcome::Live => "live",
            CrawlOutcome::TruncatedChain => "truncated-chain",
            CrawlOutcome::Dead => "dead",
        })
    }
}

/// Everything the crawler learned about one squatting domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlRecord {
    /// The squatting domain.
    pub domain: String,
    /// Impersonated brand.
    pub brand: BrandId,
    /// Squatting type.
    pub squat_type: SquatType,
    /// Web (desktop) capture, `None` when unreachable.
    pub web: Option<PageCapture>,
    /// Mobile capture.
    pub mobile: Option<PageCapture>,
    /// Redirect classification of the web fetch.
    pub web_redirect: RedirectClass,
    /// Redirect classification of the mobile fetch.
    pub mobile_redirect: RedirectClass,
}

impl CrawlRecord {
    /// The crawl outcome for one device profile.
    pub fn outcome(&self, device: Device) -> CrawlOutcome {
        let capture = match device {
            Device::Web => self.web.as_ref(),
            Device::Mobile => self.mobile.as_ref(),
        };
        match capture {
            None => CrawlOutcome::Dead,
            Some(c) if c.html.is_empty() => CrawlOutcome::TruncatedChain,
            Some(_) => CrawlOutcome::Live,
        }
    }

    /// Whether either profile captured anything (page or truncated
    /// chain).
    pub fn live(&self) -> bool {
        self.outcome(Device::Web) != CrawlOutcome::Dead
            || self.outcome(Device::Mobile) != CrawlOutcome::Dead
    }
}

/// Crawls every `(domain, brand, type)` job over the transport, on up to
/// `config.workers()` threads. Returns records in input order plus
/// aggregate stats; if the transport exposes [`TransportMetrics`]
/// (middleware stacks do), the engine records into the same counters and
/// the combined snapshot lands on [`CrawlStats::transport`].
pub fn crawl_all(
    jobs: &[(String, BrandId, SquatType)],
    registry: &BrandRegistry,
    transport: &dyn Transport,
    config: &CrawlConfig,
) -> (Vec<CrawlRecord>, CrawlStats) {
    let brand_domains: HashMap<usize, String> = registry
        .brands()
        .iter()
        .map(|b| (b.id, b.domain.as_str().to_string()))
        .collect();
    let markets: std::collections::HashSet<&str> = MARKETPLACES.iter().copied().collect();
    let metrics = transport
        .metrics()
        .unwrap_or_else(|| Arc::new(TransportMetrics::new()));

    // One job is ~5 µs in process (`crawler.stack_domains_per_s`) against
    // ~50 µs to spawn a thread: a worker needs tens of jobs to pay for
    // itself, so a watch-sized batch stays on the caller.
    const CRAWL_GRAIN: usize = 32;
    let records = par_map(jobs.len(), config.workers, CRAWL_GRAIN, |i| {
        let (domain, brand, squat_type) = &jobs[i];
        let brand_domain = brand_domains.get(brand).map(String::as_str);
        let fetch = |device| {
            fetch_one(
                transport,
                domain,
                device,
                config,
                brand_domain,
                &markets,
                &metrics,
            )
        };
        let (web, web_redirect) = fetch(Device::Web);
        let (mobile, mobile_redirect) = fetch(Device::Mobile);
        CrawlRecord {
            domain: domain.clone(),
            brand: *brand,
            squat_type: *squat_type,
            web,
            mobile,
            web_redirect,
            mobile_redirect,
        }
    });

    let mut stats = CrawlStats::from_records(&records);
    stats.transport = metrics.snapshot();
    (records, stats)
}

#[allow(clippy::too_many_arguments)]
fn fetch_one(
    transport: &dyn Transport,
    domain: &str,
    device: Device,
    config: &CrawlConfig,
    brand_domain: Option<&str>,
    markets: &std::collections::HashSet<&str>,
    metrics: &TransportMetrics,
) -> (Option<PageCapture>, RedirectClass) {
    let mut host = domain.to_string();
    let mut redirects: Vec<String> = Vec::new();
    let mut retries_left = config.retries;
    for _ in 0..=(config.max_redirects + config.retries) {
        metrics.record_attempt();
        match transport.fetch(&host, device, config.snapshot) {
            Ok(ServeResult::Page(html)) => {
                metrics.record_success();
                let class = classify_chain(&redirects, &host, domain, brand_domain, markets);
                return (
                    Some(PageCapture {
                        final_host: host,
                        html,
                        redirects,
                    }),
                    class,
                );
            }
            Ok(ServeResult::Redirect(url)) => {
                metrics.record_success();
                let next = host_of(&url).unwrap_or(url);
                redirects.push(next.clone());
                host = next;
            }
            Ok(ServeResult::Unreachable) => {
                // Transports normally map this onto a FetchError; treat
                // a raw Unreachable exactly like one for robustness.
                if !absorb_failure(&mut retries_left, metrics) {
                    return give_up(redirects, host, domain, brand_domain, markets);
                }
            }
            Err(e) => {
                // The engine is the final consumer of every error that
                // surfaces this far (see TransportMetrics docs).
                metrics.record_error(e.class());
                if !absorb_failure(&mut retries_left, metrics) {
                    return give_up(redirects, host, domain, brand_domain, markets);
                }
            }
        }
    }
    (None, RedirectClass::Other) // redirect loop
}

/// Consumes one retry if any are left; returns whether the failure was
/// absorbed.
fn absorb_failure(retries_left: &mut usize, metrics: &TransportMetrics) -> bool {
    if *retries_left > 0 {
        *retries_left -= 1;
        metrics.record_retry(Duration::ZERO);
        true
    } else {
        false
    }
}

/// Records the terminal failure of a fetch chain: dead when nothing was
/// seen, a truncated chain when redirects were already followed.
fn give_up(
    redirects: Vec<String>,
    host: String,
    domain: &str,
    brand_domain: Option<&str>,
    markets: &std::collections::HashSet<&str>,
) -> (Option<PageCapture>, RedirectClass) {
    if redirects.is_empty() {
        return (None, RedirectClass::None);
    }
    let class = classify_chain(&redirects, &host, domain, brand_domain, markets);
    (
        Some(PageCapture {
            final_host: host,
            html: String::new(),
            redirects,
        }),
        class,
    )
}

fn classify_chain(
    redirects: &[String],
    final_host: &str,
    origin: &str,
    brand_domain: Option<&str>,
    markets: &std::collections::HashSet<&str>,
) -> RedirectClass {
    if redirects.is_empty() || final_host == origin {
        return RedirectClass::None;
    }
    if Some(final_host) == brand_domain {
        return RedirectClass::Original;
    }
    if markets.contains(final_host) {
        return RedirectClass::Market;
    }
    RedirectClass::Other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcessTransport;
    use squatphi_web::{WebWorld, WorldConfig};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn setup(
        n_brands: usize,
        per_brand: usize,
        phishing: usize,
        seed: u64,
    ) -> (
        Vec<(String, BrandId, SquatType)>,
        BrandRegistry,
        InProcessTransport,
    ) {
        let registry = BrandRegistry::with_size(n_brands);
        let mut squats = Vec::new();
        for (i, b) in registry.brands().iter().enumerate() {
            for j in 0..per_brand {
                squats.push((
                    format!("{}-sq{}.com", b.label, j),
                    i,
                    SquatType::Combo,
                    Ipv4Addr::new(203, 0, (i % 200) as u8, j as u8),
                ));
            }
        }
        let cfg = WorldConfig {
            phishing_domains: phishing,
            seed,
            ..WorldConfig::default()
        };
        let world = Arc::new(WebWorld::build(&squats, &registry, &cfg));
        let jobs: Vec<(String, BrandId, SquatType)> = squats
            .iter()
            .map(|(d, b, t, _)| (d.clone(), *b, *t))
            .collect();
        (jobs, registry, InProcessTransport::new(world))
    }

    fn workers(n: usize) -> CrawlConfig {
        CrawlConfig::builder()
            .workers(n)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn builder_validates_and_default_roundtrips() {
        assert_eq!(
            CrawlConfig::builder().build().expect("default is valid"),
            CrawlConfig::default()
        );
        assert_eq!(
            CrawlConfig::builder().workers(0).build(),
            Err(CrawlConfigError::ZeroWorkers)
        );
        assert_eq!(
            CrawlConfig::builder().max_redirects(0).build(),
            Err(CrawlConfigError::ZeroRedirects)
        );
        assert!(CrawlConfigError::ZeroWorkers
            .to_string()
            .contains("workers"));
        let cfg = CrawlConfig::builder()
            .workers(3)
            .max_redirects(2)
            .snapshot(1)
            .retries(0)
            .build()
            .expect("valid");
        assert_eq!(cfg.workers(), 3);
        assert_eq!(cfg.max_redirects(), 2);
        assert_eq!(cfg.snapshot(), 1);
        assert_eq!(cfg.retries(), 0);
    }

    #[test]
    fn crawl_covers_all_jobs_in_order() {
        let (jobs, registry, transport) = setup(10, 20, 10, 1);
        let (records, stats) = crawl_all(&jobs, &registry, &transport, &CrawlConfig::default());
        assert_eq!(records.len(), jobs.len());
        for (r, j) in records.iter().zip(&jobs) {
            assert_eq!(r.domain, j.0);
        }
        assert_eq!(stats.total, jobs.len());
    }

    #[test]
    fn live_fraction_reasonable() {
        let (jobs, registry, transport) = setup(10, 30, 5, 2);
        let (records, stats) = crawl_all(&jobs, &registry, &transport, &CrawlConfig::default());
        let live = records.iter().filter(|r| r.live()).count();
        assert!(live > 0 && live < records.len());
        assert!(stats.web_live + stats.mobile_live > 0);
    }

    #[test]
    fn outcomes_match_captures() {
        let (jobs, registry, transport) = setup(10, 30, 5, 2);
        let (records, _) = crawl_all(&jobs, &registry, &transport, &CrawlConfig::default());
        let mut seen_live = false;
        let mut seen_dead = false;
        for r in &records {
            match r.outcome(Device::Web) {
                CrawlOutcome::Live => {
                    seen_live = true;
                    assert!(r.web.as_ref().is_some_and(|c| !c.html.is_empty()));
                }
                CrawlOutcome::TruncatedChain => {
                    assert!(r.web.as_ref().is_some_and(|c| c.html.is_empty()));
                }
                CrawlOutcome::Dead => {
                    seen_dead = true;
                    assert!(r.web.is_none());
                }
            }
        }
        assert!(seen_live && seen_dead, "both outcomes present at scale");
    }

    #[test]
    fn engine_metrics_reach_crawl_stats() {
        let (jobs, registry, transport) = setup(5, 10, 3, 2);
        let (records, stats) = crawl_all(&jobs, &registry, &transport, &CrawlConfig::default());
        let t = &stats.transport;
        // Every job fetches web + mobile at least once.
        assert!(t.attempts >= 2 * records.len() as u64);
        assert!(t.successes > 0);
        // Dead hosts fail, get the configured single retry, then fail
        // again: errors and retries are both populated.
        assert!(t.errors_total() > 0);
        assert!(t.retries > 0);
        assert_eq!(t.injected_total(), 0, "no chaos layer in this crawl");
    }

    #[test]
    fn redirects_classified() {
        let (jobs, registry, transport) = setup(20, 40, 5, 3);
        let (records, stats) = crawl_all(&jobs, &registry, &transport, &CrawlConfig::default());
        // With 800 domains the original/market/other buckets should all
        // be populated (1.7% / 3% / 8% of live).
        assert!(stats.web_redirect_market > 0, "no marketplace redirects");
        assert!(stats.web_redirect_other > 0, "no other redirects");
        let any_original = records
            .iter()
            .any(|r| r.web_redirect == RedirectClass::Original);
        assert!(any_original, "no original redirects");
    }

    #[test]
    fn single_threaded_matches_parallel() {
        let (jobs, registry, transport) = setup(20, 10, 3, 4);
        // 200 jobs fan out (six runs of CRAWL_GRAIN); 50, fewer jobs than
        // workers and none at all stay on the caller.
        for jobs in [&jobs[..], &jobs[..50], &jobs[..3], &jobs[..0]] {
            let (a, _) = crawl_all(jobs, &registry, &transport, &workers(1));
            assert_eq!(a.len(), jobs.len());
            for (record, job) in a.iter().zip(jobs) {
                assert_eq!(record.domain, job.0, "records follow input order");
            }
            for n in [4, 8] {
                let (b, _) = crawl_all(jobs, &registry, &transport, &workers(n));
                assert_eq!(a, b, "workers={n} jobs={}", jobs.len());
            }
        }
    }

    #[test]
    fn retries_absorb_transient_failures() {
        use crate::middleware::{ChaosTransport, FaultPlan};
        let (jobs, registry, transport) = setup(5, 10, 3, 9);
        // Baseline without flakiness.
        let (clean, _) = crawl_all(
            &jobs,
            &registry,
            &transport,
            &CrawlConfig::builder()
                .workers(1)
                .retries(0)
                .build()
                .expect("valid"),
        );
        // Every host fails its first attempt; one retry must recover the
        // same liveness picture (each domain is fetched twice — web and
        // mobile — so the first device's retry absorbs the failure).
        let flaky = ChaosTransport::new(
            transport,
            FaultPlan::fail_first(1),
            Arc::new(TransportMetrics::new()),
        );
        let (retried, stats) = crawl_all(
            &jobs,
            &registry,
            &flaky,
            &CrawlConfig::builder()
                .workers(1)
                .retries(1)
                .build()
                .expect("valid"),
        );
        for (a, b) in clean.iter().zip(&retried) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(
                a.web.is_some(),
                b.web.is_some(),
                "{} liveness changed",
                a.domain
            );
        }
        assert!(stats.transport.retries >= jobs.len() as u64);
    }

    #[test]
    fn without_retries_flaky_hosts_look_dead() {
        use crate::middleware::{ChaosTransport, FaultPlan};
        let (jobs, registry, transport) = setup(5, 10, 3, 9);
        let flaky = ChaosTransport::new(
            transport,
            FaultPlan::fail_first(99),
            Arc::new(TransportMetrics::new()),
        );
        let (records, stats) = crawl_all(
            &jobs,
            &registry,
            &flaky,
            &CrawlConfig::builder()
                .workers(2)
                .retries(0)
                .build()
                .expect("valid"),
        );
        assert_eq!(stats.web_live, 0);
        assert!(records.iter().all(|r| !r.live()));
        assert!(records
            .iter()
            .all(|r| r.outcome(Device::Web) == CrawlOutcome::Dead));
    }

    #[test]
    fn captures_render_lazily() {
        let (jobs, registry, transport) = setup(5, 5, 3, 5);
        let (records, _) = crawl_all(&jobs, &registry, &transport, &CrawlConfig::default());
        let live = records
            .iter()
            .find(|r| r.web.is_some())
            .expect("at least one live page at this scale");
        let bmp = live
            .web
            .as_ref()
            .expect("filtered on web capture above")
            .render();
        assert!(bmp.width() > 0);
    }
}
