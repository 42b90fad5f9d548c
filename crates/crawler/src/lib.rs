//! Distributed crawler substitute (paper §3.2).
//!
//! The paper crawls 657K squatting domains with a fleet of Puppeteer
//! instances (5 machines × 20 browsers), capturing web and mobile pages
//! plus screenshots and following every redirect. Our crawler keeps that
//! architecture — a work queue drained by a worker pool — over a
//! pluggable, fallible [`Transport`]:
//!
//! * [`transport::InProcessTransport`] — direct calls into the
//!   [`squatphi_web::WebWorld`] (used for bulk scale),
//! * [`middleware`] — tower-style decorator layers composed over any
//!   base transport: retry with seeded backoff, per-fetch / whole-crawl
//!   deadlines on a [`clock::VirtualClock`], a per-host circuit breaker,
//!   and seeded chaos fault injection ([`middleware::TransportStack`]
//!   builds the canonical stack),
//! * there is no socket transport: the `squatphi-http` crate serves and
//!   fetches the same world over localhost TCP (see the `active_probe`
//!   example) but is not wired in as a [`Transport`].
//!
//! Fetches fail with a structured [`FetchError`] (timeout / refused /
//! truncated / injected); [`TransportMetrics`] counts every attempt,
//! retry, breaker trip and deadline hit, and [`crawl_all`] folds the
//! snapshot into [`CrawlStats::transport`].
//!
//! Captured pages keep the HTML; screenshots are rendered lazily through
//! [`PageCapture::render`] so a million-page crawl does not hold a
//! million bitmaps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod crawl;
pub mod error;
pub mod metrics;
pub mod middleware;
pub mod schedule;
pub mod stats;
pub mod transport;

pub use clock::{Clock, VirtualClock};
pub use crawl::{
    crawl_all, CrawlConfig, CrawlConfigBuilder, CrawlConfigError, CrawlOutcome, CrawlRecord,
    PageCapture, RedirectClass,
};
pub use error::{FetchClass, FetchError};
pub use metrics::{TransportMetrics, TransportSnapshot};
pub use middleware::{
    ChaosTransport, CircuitBreakerPolicy, CircuitBreakerTransport, DeadlinePolicy,
    DeadlineTransport, FaultMode, FaultPlan, RetryPolicy, RetryTransport, StackedTransport,
    TransportStack,
};
pub use schedule::RecrawlScheduler;
pub use stats::CrawlStats;
pub use transport::{InProcessTransport, Transport};
