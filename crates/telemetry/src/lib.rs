//! # squatphi-telemetry — the deterministic telemetry core
//!
//! Every metrics surface in the workspace — the scan, the crawl
//! transport stack, the page-analysis cache, the supervised pipeline, the
//! watch daemon, the bench baselines — speaks through this crate:
//!
//! * [`Registry`] — thread-safe counters, gauges and RAII [`Span`] timers
//!   under dotted names, with [`Scope`] prefixing.
//! * [`Snapshot`] — a sorted point-in-time copy; renders as a stable nested
//!   JSON tree, so two identical runs produce byte-identical output.
//! * [`Json`] — the one hand-rolled JSON encoder (the workspace builds
//!   offline, serde-free); ordered objects, deterministic float formatting.
//! * [`Invariant`] / [`InvariantSet`] — conservation identities as data,
//!   checked centrally with a structured [`Violation`] report; the
//!   workspace's canonical sets live in [`invariants`].
//! * [`is_timing_name`] — the single `--timings` rule: names matching it
//!   are zeroed by [`Snapshot::strip_timings`] unless the user asked for
//!   timing output, which is what keeps default `--json` two-run
//!   byte-identical and thread-count invariant.
//! * [`par_map`] — the one ordered parallel map every fan-out runs on,
//!   the scan included (this is the only dependency-free crate the
//!   fanning-out crates share), and [`lock_unpoisoned`], the one way the
//!   workspace takes a `std::sync::Mutex` that a caught panic may have
//!   poisoned.
//!
//! The legacy structs (`ClassifyStats`, `ScanMetrics`, `CrawlStats`,
//! `TransportSnapshot`, `AnalysisSnapshot`, `SupervisionReport`,
//! `WatchCounters`, …) survive as thin typed views that `export` into a
//! registry scope and whose `reconciles()` delegate to [`invariants`].

mod invariant;
pub mod invariants;
mod json;
mod par;
mod registry;
mod snapshot;

pub use invariant::{Invariant, InvariantSet, Term, Violation};
pub use json::{escape, fmt_f64, Json};
pub use par::{lock_unpoisoned, par_map};
pub use registry::{Counter, Registry, Scope, Span};
pub use snapshot::{is_timing_name, Snapshot, Value};
