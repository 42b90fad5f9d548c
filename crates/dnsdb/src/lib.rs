//! ActiveDNS substitute: the DNS-records haystack and the tools that search
//! it (paper §3.1).
//!
//! The paper scans a 224.8M-record ActiveDNS snapshot for squatting
//! domains. That dataset is proprietary, so this crate rebuilds the whole
//! path on synthetic data with the same statistical structure:
//!
//! * [`synth`] — deterministic snapshot generator: a haystack of benign
//!   domains with planted squatting populations drawn with the paper's
//!   brand skew and type mix (combo 56%, typo 25%, …),
//! * [`store`] — the columnar in-memory record store (domain → A record)
//!   and its parallel zone-text import,
//! * [`mod@scan`] — multi-threaded scan engine running the
//!   [`squatphi_squat::SquatDetector`] over every record (Figure 2),
//! * [`probe`] — the active-probing path: an authoritative UDP server
//!   thread serving the snapshot zone plus a bounded pool of probing threads,
//!   mirroring how ActiveDNS actually produces its records,
//! * [`events`] — the live-feed counterpart of [`synth`]: a seeded,
//!   random-access stream of registration / churn / feed events on a
//!   virtual timeline, consumed by the `squatphi watch` daemon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod probe;
pub mod scan;
pub mod store;
pub mod synth;

pub use events::{EventStream, EventStreamConfig, StreamEvent, TimedEvent};
pub use scan::{
    scan, scan_with_metrics, try_scan_with_metrics, ScanError, ScanMetrics, ScanOutcome,
    SquatRecord, WorkerMetrics,
};
pub use store::RecordStore;
pub use synth::{SnapshotConfig, SnapshotStats};
