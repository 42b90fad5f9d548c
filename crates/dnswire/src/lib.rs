//! Zone-file codec for the ActiveDNS-style snapshot.
//!
//! The paper's squatting search runs over the ActiveDNS project's records.
//! The reproduction substitutes a synthetic snapshot (DESIGN.md §2) that
//! `squatphi-dnsdb` exports and imports as RFC 1035 §5 master-file text;
//! [`zone`] is that codec and [`RData`] / [`ResourceRecord`] are the
//! records it reads and writes. There is no DNS wire format here: nothing
//! in the workspace opens a socket (DESIGN.md §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod zone;

pub use zone::{RData, ResourceRecord};
