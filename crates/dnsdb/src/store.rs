//! The in-memory DNS record store.
//!
//! An ActiveDNS record is essentially `(domain, IP)`. The store keeps the
//! snapshot in columns — every domain back to back in one name arena, an
//! end offset per record, an address per record — so a record costs its
//! name bytes plus 12 bytes and no allocation of its own, and the scan's
//! linear pass reads memory in order. The probe server's point lookups get
//! an optional hash index.

use squatphi_dnswire::zone::{self, ZoneError};
use squatphi_dnswire::RData;
use squatphi_telemetry::par_map;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Bytes of zone text one import task parses at least (~25k lines of
/// `to_zone` output). One costs ~5 ms to parse against a ~50 µs thread
/// spawn (DESIGN.md §5); a zone no longer than this is one chunk, which
/// [`par_map`] parses on the calling thread.
const ZONE_GRAIN: usize = 1 << 20;

/// The snapshot: `(domain, IP)` records in three columns.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordStore {
    /// Every domain, back to back. Offsets are `usize`: paper scale is
    /// ~3.8 GB of names.
    names: String,
    /// `ends[i]` is where domain `i` stops in `names`; it starts where
    /// domain `i - 1` stops.
    ends: Vec<usize>,
    /// `ips[i]` is domain `i`'s A record.
    ips: Vec<Ipv4Addr>,
}

impl RecordStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store with room for `n` records (their names grow the arena).
    pub fn with_capacity(n: usize) -> Self {
        RecordStore {
            names: String::new(),
            ends: Vec::with_capacity(n),
            ips: Vec::with_capacity(n),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, domain: &str, ip: Ipv4Addr) {
        self.names.push_str(domain);
        self.ends.push(self.names.len());
        self.ips.push(ip);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// Record `i` as `(domain, ip)`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<(&str, Ipv4Addr)> {
        (i < self.len()).then(|| self.record(i))
    }

    /// Every record in store order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, Ipv4Addr)> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }

    /// Record `i`; panics past the end.
    pub(crate) fn record(&self, i: usize) -> (&str, Ipv4Addr) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (&self.names[start..self.ends[i]], self.ips[i])
    }

    /// Builds a point-lookup index (domain → IP) for the probe server.
    pub fn index(&self) -> HashMap<String, Ipv4Addr> {
        self.iter().map(|(d, ip)| (d.to_string(), ip)).collect()
    }

    /// Exports the snapshot as zone-file text (A records, fixed TTL) —
    /// human-diffable fixtures for tests and offline analysis.
    pub fn to_zone(&self) -> String {
        let mut out =
            String::with_capacity(self.names.len() + self.len() * zone::A_LINE_MAX_OVERHEAD);
        for (domain, ip) in self.iter() {
            zone::write_record(&mut out, domain, 300, &RData::A(ip));
        }
        out
    }

    /// Imports a snapshot from zone-file text. Non-A records are ignored
    /// (the scan only consumes name/IP pairs).
    ///
    /// The text is cut just after a `\n` into ~1 MiB chunks that parse on
    /// [`par_map`] with one worker per available core, and the chunks'
    /// columns are appended in text order. A malformed line fails the
    /// import with the error the earliest failing chunk hit, numbered from
    /// the start of `text` — the error a one-pass parse reports.
    pub fn from_zone(text: &str) -> Result<Self, ZoneError> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::import(text, ZONE_GRAIN, workers)
    }

    fn import(text: &str, grain: usize, workers: usize) -> Result<Self, ZoneError> {
        let cuts = line_cuts(text, grain);
        let chunks = par_map(cuts.len() - 1, workers, 1, |i| {
            let mut chunk = RecordStore::new();
            zone::for_each_record(&text[cuts[i]..cuts[i + 1]], |name, _, rdata| {
                if let RData::A(ip) = rdata {
                    chunk.push(name, ip);
                }
            })
            .map(|lines| (chunk, lines))
        });
        let mut parts = Vec::with_capacity(chunks.len());
        let mut lines_before = 0;
        for chunk in chunks {
            match chunk {
                Ok((part, lines)) => {
                    parts.push(part);
                    lines_before += lines;
                }
                Err(ZoneError::BadLine { line, reason }) => {
                    return Err(ZoneError::BadLine {
                        line: lines_before + line,
                        reason,
                    })
                }
            }
        }
        Ok(Self::concat(parts))
    }

    /// One store holding `parts`' records in order. It is reserved whole
    /// up front, so each part is freed as soon as it has been copied.
    fn concat(parts: Vec<RecordStore>) -> Self {
        let records = parts.iter().map(RecordStore::len).sum();
        let mut store = RecordStore {
            names: String::with_capacity(parts.iter().map(|p| p.names.len()).sum()),
            ends: Vec::with_capacity(records),
            ips: Vec::with_capacity(records),
        };
        for part in parts {
            let base = store.names.len();
            store.names.push_str(&part.names);
            store.ends.extend(part.ends.iter().map(|end| base + end));
            store.ips.extend_from_slice(&part.ips);
        }
        store
    }
}

/// Byte offsets `[0, …, text.len()]` that cut `text` into chunks of at
/// least `grain` (≥ 1) bytes, each ending just after a `\n` (the last one
/// at the end of the text).
fn line_cuts(text: &str, grain: usize) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut cuts = vec![0];
    let mut at = 0;
    while at < bytes.len() {
        let min_end = (at + grain).min(bytes.len());
        at = bytes[min_end - 1..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |newline| min_end + newline);
        cuts.push(at);
    }
    cuts
}

#[cfg(test)]
mod zone_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut s = RecordStore::new();
        assert!(s.is_empty());
        s.push("a.com", Ipv4Addr::new(1, 2, 3, 4));
        s.push("b.com", Ipv4Addr::new(5, 6, 7, 8));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Some(("a.com", Ipv4Addr::new(1, 2, 3, 4))));
        assert_eq!(s.get(1), Some(("b.com", Ipv4Addr::new(5, 6, 7, 8))));
        assert_eq!(s.get(2), None);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [
                ("a.com", Ipv4Addr::new(1, 2, 3, 4)),
                ("b.com", Ipv4Addr::new(5, 6, 7, 8))
            ]
        );
    }

    #[test]
    fn index_maps_domains() {
        let mut s = RecordStore::new();
        s.push("x.org", Ipv4Addr::new(9, 9, 9, 9));
        let idx = s.index();
        assert_eq!(idx.get("x.org"), Some(&Ipv4Addr::new(9, 9, 9, 9)));
        assert_eq!(idx.get("y.org"), None);
    }

    #[test]
    fn zone_round_trip() {
        let mut s = RecordStore::new();
        s.push("faceb00k.pw", Ipv4Addr::new(203, 0, 113, 1));
        s.push("www.goofle.com.ua", Ipv4Addr::new(203, 0, 113, 2));
        let text = s.to_zone();
        assert!(text.contains("faceb00k.pw.\t300\tIN\tA\t203.0.113.1"));
        let back = RecordStore::from_zone(&text).expect("parse own output");
        assert_eq!(back, s);
    }

    #[test]
    fn from_zone_skips_non_a_records() {
        let text = "a.com.\t60\tIN\tA\t1.2.3.4\nb.com.\t60\tIN\tCNAME\tc.com.\n";
        let s = RecordStore::from_zone(text).expect("valid zone");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Some(("a.com", Ipv4Addr::new(1, 2, 3, 4))));
    }

    #[test]
    fn from_zone_propagates_errors() {
        assert!(RecordStore::from_zone("broken").is_err());
    }
}
