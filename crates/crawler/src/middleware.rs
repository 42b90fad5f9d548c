//! Composable transport middleware — the crawl robustness engine.
//!
//! Decorator transports wrap any [`Transport`] the way tower layers wrap
//! a service; each one owns a single policy and shares the stack's
//! [`TransportMetrics`] and [`Clock`]:
//!
//! ```text
//!  crawl engine
//!    └─ DeadlineTransport      per-fetch + whole-crawl budgets (virtual clock)
//!        └─ CircuitBreakerTransport   per-host open/half-open/closed
//!            └─ RetryTransport        attempt budget + seeded exp. backoff
//!                └─ ChaosTransport    seeded fault plans (tests / drills)
//!                    └─ InProcessTransport (or any real backend)
//! ```
//!
//! [`TransportStack`] builds that composition fluently:
//!
//! ```
//! # use squatphi_crawler::middleware::*;
//! # use squatphi_crawler::transport::{InProcessTransport, Transport};
//! # use squatphi_squat::{BrandRegistry, SquatType};
//! # use squatphi_web::{Device, WebWorld, WorldConfig};
//! # use std::sync::Arc;
//! # let registry = BrandRegistry::with_size(3);
//! # let squats = vec![("paypal-x.com".to_string(), 0usize, SquatType::Combo,
//! #     std::net::Ipv4Addr::new(9, 9, 9, 9))];
//! # let world = Arc::new(WebWorld::build(&squats, &registry, &WorldConfig {
//! #     phishing_domains: 1, ..WorldConfig::default() }));
//! let stack = TransportStack::new(InProcessTransport::new(world))
//!     .chaos(FaultPlan::fail_first(1))
//!     .retry(RetryPolicy::default())
//!     .breaker(CircuitBreakerPolicy::default())
//!     .deadline(DeadlinePolicy::default())
//!     .build();
//! let metrics = stack.metrics().expect("stack exposes metrics");
//! assert!(stack.fetch("paypal-x.com", Device::Web, 0).is_ok());
//! assert_eq!(metrics.snapshot().retries, 1);
//! ```
//!
//! All timing is virtual ([`VirtualClock`]): retries advance the clock
//! instead of sleeping, so fault handling is deterministic for a fixed
//! seed regardless of machine or thread count.

use crate::clock::{Clock, VirtualClock};
use crate::error::{FetchClass, FetchError};
use crate::metrics::TransportMetrics;
use crate::transport::Transport;
use squatphi_telemetry::lock_unpoisoned;
use squatphi_web::{Device, ServeResult};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deterministic splitmix64-style mixer for jitter and fault sampling.
fn mix(seed: u64, host: &str, n: u64) -> u64 {
    let mut h = seed ^ 0x9e3779b97f4a7c15;
    for b in host.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h ^= n.wrapping_mul(0xd6e8feb86659fd93);
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8feb86659fd93);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------------
// Retry

/// Per-fetch retry budget with seeded exponential backoff and jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry (doubles per attempt).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter seed — same seed, same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retry number `retry` (1-based)
    /// of `host`: `base * 2^(retry-1)` capped at `max_backoff`, jittered
    /// into `[exp/2, exp]` by a hash of `(seed, host, retry)`.
    pub fn backoff_for(&self, host: &str, retry: u32) -> Duration {
        let exp_ns = u64::try_from(self.base_backoff.as_nanos())
            .unwrap_or(u64::MAX)
            .saturating_mul(1u64 << retry.saturating_sub(1).min(32));
        let cap_ns = u64::try_from(self.max_backoff.as_nanos()).unwrap_or(u64::MAX);
        let exp_ns = exp_ns.min(cap_ns);
        let half = exp_ns / 2;
        let jitter = if half == 0 {
            0
        } else {
            mix(self.seed, host, retry as u64) % (half + 1)
        };
        Duration::from_nanos(half + jitter)
    }
}

/// Retries failed fetches with [`RetryPolicy`] backoff, advancing the
/// stack clock instead of sleeping.
pub struct RetryTransport<T> {
    inner: T,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    metrics: Arc<TransportMetrics>,
}

impl<T: Transport> RetryTransport<T> {
    /// Wraps `inner`.
    pub fn new(
        inner: T,
        policy: RetryPolicy,
        clock: Arc<dyn Clock>,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        RetryTransport {
            inner,
            policy,
            clock,
            metrics,
        }
    }
}

impl<T: Transport> Transport for RetryTransport<T> {
    fn fetch(&self, host: &str, device: Device, snapshot: u8) -> Result<ServeResult, FetchError> {
        let mut attempt: u32 = 1;
        loop {
            match self.inner.fetch(host, device, snapshot) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    if attempt > self.policy.max_retries {
                        // Final failure propagates (and is counted by
                        // whoever consumes it above us).
                        return Err(e.with_attempt(attempt));
                    }
                    // Absorbed by retrying: we are this fault's consumer.
                    self.metrics.record_error(e.class());
                    let backoff = self.policy.backoff_for(host, attempt);
                    self.clock.advance(backoff);
                    self.metrics.record_retry(backoff);
                    attempt += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deadline

/// Per-fetch and whole-crawl time budgets, measured on the stack clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Budget for one fetch (including backoff spent below this layer);
    /// `None` = unlimited.
    pub per_fetch: Option<Duration>,
    /// Budget for everything fetched through this layer since it was
    /// built; `None` = unlimited.
    pub whole_crawl: Option<Duration>,
    /// Virtual cost charged per inner fetch, so budgets make progress
    /// even when no layer below advances the clock.
    pub fetch_cost: Duration,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy {
            per_fetch: Some(Duration::from_secs(30)),
            whole_crawl: None,
            fetch_cost: Duration::from_millis(5),
        }
    }
}

/// Enforces [`DeadlinePolicy`]; budget violations surface as
/// [`FetchError::Timeout`].
pub struct DeadlineTransport<T> {
    inner: T,
    policy: DeadlinePolicy,
    clock: Arc<dyn Clock>,
    metrics: Arc<TransportMetrics>,
    start: Duration,
}

impl<T: Transport> DeadlineTransport<T> {
    /// Wraps `inner`; the whole-crawl budget starts counting now.
    pub fn new(
        inner: T,
        policy: DeadlinePolicy,
        clock: Arc<dyn Clock>,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        let start = clock.now();
        DeadlineTransport {
            inner,
            policy,
            clock,
            metrics,
            start,
        }
    }
}

impl<T: Transport> Transport for DeadlineTransport<T> {
    fn fetch(&self, host: &str, device: Device, snapshot: u8) -> Result<ServeResult, FetchError> {
        if let Some(budget) = self.policy.whole_crawl {
            if self.clock.now().saturating_sub(self.start) >= budget {
                self.metrics.record_crawl_deadline();
                return Err(FetchError::Timeout {
                    host: host.to_string(),
                    attempt: 0,
                });
            }
        }
        let t0 = self.clock.now();
        self.clock.advance(self.policy.fetch_cost);
        let result = self.inner.fetch(host, device, snapshot);
        if let Some(limit) = self.policy.per_fetch {
            let elapsed = self.clock.now().saturating_sub(t0);
            if elapsed > limit {
                // The fetch took longer than its budget: whatever came
                // back is discarded, exactly like a socket timeout.
                self.metrics.record_fetch_deadline();
                return Err(FetchError::Timeout {
                    host: host.to_string(),
                    attempt: 0,
                });
            }
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker

/// Per-host circuit-breaker thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreakerPolicy {
    /// Consecutive failures that open the circuit.
    pub trip_after: u32,
    /// Virtual time an open circuit rejects fetches before allowing a
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for CircuitBreakerPolicy {
    fn default() -> Self {
        CircuitBreakerPolicy {
            trip_after: 3,
            cooldown: Duration::from_secs(60),
        }
    }
}

/// Half-open is represented implicitly: an expired `Open` lets exactly
/// one fetch through as the probe (see [`CircuitBreakerTransport::fetch`]).
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { until: Duration },
}

/// Stops fetching hosts that keep failing: after
/// [`CircuitBreakerPolicy::trip_after`] consecutive failures the host's
/// circuit opens and fetches are rejected locally
/// ([`FetchError::ConnectionRefused`]) until the cooldown elapses on the
/// stack clock; the next fetch then probes half-open and a success
/// closes the circuit again.
pub struct CircuitBreakerTransport<T> {
    inner: T,
    policy: CircuitBreakerPolicy,
    clock: Arc<dyn Clock>,
    metrics: Arc<TransportMetrics>,
    states: Mutex<HashMap<String, BreakerState>>,
}

impl<T: Transport> CircuitBreakerTransport<T> {
    /// Wraps `inner` with all circuits closed.
    pub fn new(
        inner: T,
        policy: CircuitBreakerPolicy,
        clock: Arc<dyn Clock>,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        CircuitBreakerTransport {
            inner,
            policy,
            clock,
            metrics,
            states: Mutex::new(HashMap::new()),
        }
    }

    /// Hosts whose circuit is currently open.
    pub fn open_hosts(&self) -> Vec<String> {
        let now = self.clock.now();
        lock_unpoisoned(&self.states)
            .iter()
            .filter(|(_, s)| matches!(s, BreakerState::Open { until } if now < *until))
            .map(|(h, _)| h.clone())
            .collect()
    }
}

impl<T: Transport> Transport for CircuitBreakerTransport<T> {
    fn fetch(&self, host: &str, device: Device, snapshot: u8) -> Result<ServeResult, FetchError> {
        let probing = {
            let mut states = lock_unpoisoned(&self.states);
            match states.get(host).copied() {
                Some(BreakerState::Open { until }) => {
                    if self.clock.now() < until {
                        self.metrics.record_breaker_short_circuit();
                        return Err(FetchError::ConnectionRefused {
                            host: host.to_string(),
                            attempt: 0,
                        });
                    }
                    // Cooldown over: let exactly this fetch probe, and
                    // keep rejecting concurrent ones until it reports.
                    states.insert(
                        host.to_string(),
                        BreakerState::Open {
                            until: self.clock.now() + self.policy.cooldown,
                        },
                    );
                    true
                }
                _ => false,
            }
        };
        let result = self.inner.fetch(host, device, snapshot);
        let mut states = lock_unpoisoned(&self.states);
        match &result {
            Ok(_) => {
                states.insert(
                    host.to_string(),
                    BreakerState::Closed {
                        consecutive_failures: 0,
                    },
                );
            }
            Err(_) => {
                let failures = match states.get(host).copied() {
                    _ if probing => self.policy.trip_after, // failed probe reopens
                    Some(BreakerState::Closed {
                        consecutive_failures,
                    }) => consecutive_failures + 1,
                    _ => 1,
                };
                if failures >= self.policy.trip_after {
                    self.metrics.record_breaker_trip();
                    states.insert(
                        host.to_string(),
                        BreakerState::Open {
                            until: self.clock.now() + self.policy.cooldown,
                        },
                    );
                } else {
                    states.insert(
                        host.to_string(),
                        BreakerState::Closed {
                            consecutive_failures: failures,
                        },
                    );
                }
            }
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Chaos

/// When a [`FaultPlan`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Never fire (the zero-fault plan).
    None,
    /// Fail the first `k` fetches of every host.
    FailFirst(u32),
    /// Fail every `k`-th fetch of every host (`k >= 1`).
    FailEvery(u32),
    /// Fail each fetch with probability `permille/1000`, decided by a
    /// hash of `(seed, host, attempt)` — deterministic, order-free.
    FailPermille(u16),
}

/// A seeded fault-injection plan: which fetches fail, and as what class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Firing rule.
    pub mode: FaultMode,
    /// Error class of injected faults.
    pub class: FetchClass,
    /// Seed for [`FaultMode::FailPermille`] sampling.
    pub seed: u64,
}

impl FaultPlan {
    /// The zero-fault plan.
    pub fn none() -> Self {
        FaultPlan {
            mode: FaultMode::None,
            class: FetchClass::Injected,
            seed: 0,
        }
    }

    /// Fail the first `k` fetches of every host.
    pub fn fail_first(k: u32) -> Self {
        FaultPlan {
            mode: FaultMode::FailFirst(k),
            ..FaultPlan::none()
        }
    }

    /// Fail every `k`-th fetch of every host.
    pub fn fail_every(k: u32) -> Self {
        FaultPlan {
            mode: FaultMode::FailEvery(k.max(1)),
            ..FaultPlan::none()
        }
    }

    /// Fail each fetch with probability `permille/1000`.
    pub fn fail_permille(permille: u16) -> Self {
        FaultPlan {
            mode: FaultMode::FailPermille(permille.min(1000)),
            ..FaultPlan::none()
        }
    }

    /// Sets the injected error class (fail-by-class plans).
    pub fn with_class(mut self, class: FetchClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the `n`-th (1-based) fetch of `host` fails under this plan.
    pub fn fires(&self, host: &str, n: u32) -> bool {
        match self.mode {
            FaultMode::None => false,
            FaultMode::FailFirst(k) => n <= k,
            FaultMode::FailEvery(k) => k >= 1 && n.is_multiple_of(k),
            FaultMode::FailPermille(p) => (mix(self.seed, host, n as u64) % 1000) < p as u64,
        }
    }
}

/// Injects [`FaultPlan`] faults in front of any transport — the
/// generalized successor of the old `FlakyTransport` (which only knew
/// fail-first). Injection is deterministic per `(host, attempt)`, so a
/// chaos crawl replays identically for a fixed seed.
pub struct ChaosTransport<T> {
    inner: T,
    plan: FaultPlan,
    metrics: Arc<TransportMetrics>,
    attempts: Mutex<HashMap<String, u32>>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan, metrics: Arc<TransportMetrics>) -> Self {
        ChaosTransport {
            inner,
            plan,
            metrics,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Total fetches that reached this layer (all hosts).
    pub fn total_attempts(&self) -> u64 {
        lock_unpoisoned(&self.attempts)
            .values()
            .map(|&n| n as u64)
            .sum()
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn fetch(&self, host: &str, device: Device, snapshot: u8) -> Result<ServeResult, FetchError> {
        let n = {
            let mut map = lock_unpoisoned(&self.attempts);
            let e = map.entry(host.to_string()).or_insert(0);
            *e += 1;
            *e
        };
        if self.plan.fires(host, n) {
            self.metrics.record_injected(self.plan.class);
            return Err(FetchError::new(self.plan.class, host, n));
        }
        self.inner.fetch(host, device, snapshot)
    }
}

// ---------------------------------------------------------------------------
// Stack builder

/// Fluent builder for a middleware composition over one shared
/// [`TransportMetrics`] and [`VirtualClock`]. Layers wrap in call order
/// — the first layer added sits closest to the inner transport — so the
/// canonical stack reads bottom-up:
/// `.chaos(..).retry(..).breaker(..).deadline(..)`.
pub struct TransportStack {
    inner: Box<dyn Transport>,
    metrics: Arc<TransportMetrics>,
    clock: Arc<VirtualClock>,
}

impl TransportStack {
    /// Starts a stack over `inner` with fresh metrics and a clock at its
    /// epoch.
    pub fn new(inner: impl Transport + 'static) -> Self {
        TransportStack {
            inner: Box::new(inner),
            metrics: Arc::new(TransportMetrics::new()),
            clock: Arc::new(VirtualClock::new()),
        }
    }

    /// The stack's shared metrics.
    pub fn metrics(&self) -> Arc<TransportMetrics> {
        self.metrics.clone()
    }

    /// The stack's shared clock.
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }

    /// Adds a [`ChaosTransport`] layer.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.inner = Box::new(ChaosTransport::new(self.inner, plan, self.metrics.clone()));
        self
    }

    /// Adds a [`RetryTransport`] layer.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.inner = Box::new(RetryTransport::new(
            self.inner,
            policy,
            self.clock.clone(),
            self.metrics.clone(),
        ));
        self
    }

    /// Adds a [`CircuitBreakerTransport`] layer.
    pub fn breaker(mut self, policy: CircuitBreakerPolicy) -> Self {
        self.inner = Box::new(CircuitBreakerTransport::new(
            self.inner,
            policy,
            self.clock.clone(),
            self.metrics.clone(),
        ));
        self
    }

    /// Adds a [`DeadlineTransport`] layer.
    pub fn deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.inner = Box::new(DeadlineTransport::new(
            self.inner,
            policy,
            self.clock.clone(),
            self.metrics.clone(),
        ));
        self
    }

    /// Finishes the composition.
    pub fn build(self) -> StackedTransport {
        StackedTransport {
            inner: self.inner,
            metrics: self.metrics,
            clock: self.clock,
        }
    }
}

/// The built middleware composition;
/// [`crawl_all`](crate::crawl::crawl_all) discovers its metrics through
/// [`Transport::metrics`] and folds them into the crawl stats.
pub struct StackedTransport {
    inner: Box<dyn Transport>,
    metrics: Arc<TransportMetrics>,
    clock: Arc<VirtualClock>,
}

impl StackedTransport {
    /// The stack's shared clock.
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }
}

impl Transport for StackedTransport {
    fn fetch(&self, host: &str, device: Device, snapshot: u8) -> Result<ServeResult, FetchError> {
        self.inner.fetch(host, device, snapshot)
    }

    fn metrics(&self) -> Option<Arc<TransportMetrics>> {
        Some(self.metrics.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcessTransport;
    use squatphi_squat::{BrandRegistry, SquatType};
    use squatphi_web::{WebWorld, WorldConfig};
    use std::net::Ipv4Addr;

    fn tiny_world() -> Arc<WebWorld> {
        let registry = BrandRegistry::with_size(5);
        let squats = vec![(
            "paypal-login.com".to_string(),
            0usize,
            SquatType::Combo,
            Ipv4Addr::new(9, 9, 9, 9),
        )];
        let cfg = WorldConfig {
            phishing_domains: 1,
            ..WorldConfig::default()
        };
        Arc::new(WebWorld::build(&squats, &registry, &cfg))
    }

    const HOST: &str = "paypal-login.com";

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for retry in 1..=5u32 {
            let a = p.backoff_for(HOST, retry);
            let b = p.backoff_for(HOST, retry);
            assert_eq!(a, b);
            assert!(a <= p.max_backoff);
        }
        // Different retries (usually) get different jitter.
        assert_ne!(p.backoff_for(HOST, 1), p.backoff_for(HOST, 2));
    }

    #[test]
    fn retry_absorbs_transient_faults_and_advances_clock() {
        let metrics = Arc::new(TransportMetrics::new());
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let chaos = ChaosTransport::new(
            InProcessTransport::new(tiny_world()),
            FaultPlan::fail_first(2),
            metrics.clone(),
        );
        let retry = RetryTransport::new(
            chaos,
            RetryPolicy::default(),
            clock.clone(),
            metrics.clone(),
        );
        assert!(retry.fetch(HOST, Device::Web, 0).is_ok());
        let s = metrics.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.injected_total(), 2);
        assert_eq!(s.errors_of(FetchClass::Injected), 2);
        assert!(clock.now() > Duration::ZERO, "backoff advanced the clock");
    }

    #[test]
    fn retry_budget_exhaustion_propagates_last_error() {
        let metrics = Arc::new(TransportMetrics::new());
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let chaos = ChaosTransport::new(
            InProcessTransport::new(tiny_world()),
            FaultPlan::fail_first(10).with_class(FetchClass::Truncated),
            metrics.clone(),
        );
        let retry = RetryTransport::new(
            chaos,
            RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            clock,
            metrics.clone(),
        );
        let err = retry.fetch(HOST, Device::Web, 0).expect_err("must fail");
        assert_eq!(err.class(), FetchClass::Truncated);
        assert_eq!(err.attempt(), 2);
        // One absorbed (consumed by retry), one propagated (not counted
        // here — its consumer counts it).
        assert_eq!(metrics.snapshot().errors_of(FetchClass::Truncated), 1);
        assert_eq!(metrics.snapshot().injected_of(FetchClass::Truncated), 2);
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_half_open() {
        let metrics = Arc::new(TransportMetrics::new());
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let chaos = ChaosTransport::new(
            InProcessTransport::new(tiny_world()),
            FaultPlan::fail_first(3),
            metrics.clone(),
        );
        let breaker = CircuitBreakerTransport::new(
            chaos,
            CircuitBreakerPolicy {
                trip_after: 3,
                cooldown: Duration::from_secs(1),
            },
            clock.clone(),
            metrics.clone(),
        );
        for _ in 0..3 {
            assert!(breaker.fetch(HOST, Device::Web, 0).is_err());
        }
        assert_eq!(metrics.snapshot().breaker_trips, 1);
        assert_eq!(breaker.open_hosts(), vec![HOST.to_string()]);
        // While open: local rejection, no inner attempt.
        let before = breaker.inner.total_attempts();
        assert!(breaker.fetch(HOST, Device::Web, 0).is_err());
        assert_eq!(breaker.inner.total_attempts(), before);
        assert_eq!(metrics.snapshot().breaker_short_circuits, 1);
        // After the cooldown, the half-open probe succeeds (plan only
        // failed the first 3) and the circuit closes.
        clock.advance(Duration::from_secs(2));
        assert!(breaker.fetch(HOST, Device::Web, 0).is_ok());
        assert!(breaker.open_hosts().is_empty());
        assert!(breaker.fetch(HOST, Device::Web, 0).is_ok());
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let metrics = Arc::new(TransportMetrics::new());
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let chaos = ChaosTransport::new(
            InProcessTransport::new(tiny_world()),
            FaultPlan::fail_first(100),
            metrics.clone(),
        );
        let breaker = CircuitBreakerTransport::new(
            chaos,
            CircuitBreakerPolicy {
                trip_after: 2,
                cooldown: Duration::from_secs(1),
            },
            clock.clone(),
            metrics.clone(),
        );
        for _ in 0..2 {
            let _ = breaker.fetch(HOST, Device::Web, 0);
        }
        clock.advance(Duration::from_secs(2));
        assert!(breaker.fetch(HOST, Device::Web, 0).is_err()); // failed probe
        assert_eq!(metrics.snapshot().breaker_trips, 2);
        assert!(!breaker.open_hosts().is_empty());
    }

    #[test]
    fn deadline_enforces_whole_crawl_budget() {
        let metrics = Arc::new(TransportMetrics::new());
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let deadline = DeadlineTransport::new(
            InProcessTransport::new(tiny_world()),
            DeadlinePolicy {
                per_fetch: None,
                whole_crawl: Some(Duration::from_millis(12)),
                fetch_cost: Duration::from_millis(5),
            },
            clock,
            metrics.clone(),
        );
        assert!(deadline.fetch(HOST, Device::Web, 0).is_ok()); // t=5ms
        assert!(deadline.fetch(HOST, Device::Web, 0).is_ok()); // t=10ms
        assert!(deadline.fetch(HOST, Device::Web, 0).is_ok()); // t=15ms
        let err = deadline.fetch(HOST, Device::Web, 0).expect_err("budget");
        assert_eq!(err.class(), FetchClass::Timeout);
        assert_eq!(metrics.snapshot().crawl_deadline_hits, 1);
    }

    #[test]
    fn deadline_times_out_slow_fetches() {
        let metrics = Arc::new(TransportMetrics::new());
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        // Retry under the deadline layer: the backoff it spends counts
        // against the per-fetch budget.
        let chaos = ChaosTransport::new(
            InProcessTransport::new(tiny_world()),
            FaultPlan::fail_first(3),
            metrics.clone(),
        );
        let retry = RetryTransport::new(
            chaos,
            RetryPolicy {
                max_retries: 5,
                base_backoff: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
            clock.clone(),
            metrics.clone(),
        );
        let deadline = DeadlineTransport::new(
            retry,
            DeadlinePolicy {
                per_fetch: Some(Duration::from_millis(100)),
                whole_crawl: None,
                fetch_cost: Duration::from_millis(5),
            },
            clock,
            metrics.clone(),
        );
        let err = deadline.fetch(HOST, Device::Web, 0).expect_err("timeout");
        assert_eq!(err.class(), FetchClass::Timeout);
        assert_eq!(metrics.snapshot().fetch_deadline_hits, 1);
    }

    #[test]
    fn fault_plans_fire_as_specified() {
        let first = FaultPlan::fail_first(2);
        assert!(first.fires("h", 1) && first.fires("h", 2) && !first.fires("h", 3));
        let every = FaultPlan::fail_every(3);
        assert!(!every.fires("h", 1) && !every.fires("h", 2) && every.fires("h", 3));
        assert!(every.fires("h", 6));
        let never = FaultPlan::none();
        assert!(!never.fires("h", 1));
        // Permille sampling is deterministic and roughly calibrated.
        let p = FaultPlan::fail_permille(300).with_seed(9);
        let hits = (1..=1000u32).filter(|&n| p.fires("host", n)).count();
        assert_eq!(hits, (1..=1000u32).filter(|&n| p.fires("host", n)).count());
        assert!((200..400).contains(&hits), "permille hits {hits}");
    }

    #[test]
    fn full_stack_composes_and_reports_metrics() {
        let stack = TransportStack::new(InProcessTransport::new(tiny_world()))
            .chaos(FaultPlan::fail_first(1))
            .retry(RetryPolicy::default())
            .breaker(CircuitBreakerPolicy::default())
            .deadline(DeadlinePolicy::default())
            .build();
        assert!(stack.fetch(HOST, Device::Web, 0).is_ok());
        let m = stack.metrics().expect("stack metrics");
        let s = m.snapshot();
        assert_eq!(s.retries, 1);
        assert_eq!(s.injected_total(), 1);
    }
}
