//! The watermark checkpoint: one document shape for the base snapshot
//! and for every delta, and the [`WatchStore`] that journals them.
//!
//! A checkpoint document says how to get from the state at tick
//! `from_tick` to the state now: the scalars and the small blocks
//! (counters, transport, the bounded ingest queue) whole, the candidate
//! queue as seqs gone plus entries pushed, the tracked map and its
//! re-crawl slots as one entry per *changed* domain, the metrics history
//! as the rows appended. A **base** is the document from the empty state
//! (`from_tick` 0, every domain, every row); a **delta** is the document
//! from the previous checkpoint, built from the [`Recorder`]'s marks. So
//! there is one encoder and one decoder, and loading is `apply` folded
//! over base and frames — the same fold whether a generation holds no
//! frames or hundreds. Documents are JSON, read back with
//! [`crate::checkpoint::json`].

use super::config::{watch_config_hash, WatchConfig};
use super::counters::{WatchCounters, WatchMetrics};
use super::runner::{Candidate, Recorder, Tracked, WatchState};
use crate::checkpoint::{json, parse_squat_type, store_err, vfs_for, CheckpointError, Loaded};
use squatphi_crawler::TransportSnapshot;
use squatphi_durability::{
    render_classes, DiskFaultPlan, DurabilityStats, DurableStore, Journal, LoadOutcome,
};
use squatphi_telemetry::escape;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::Path;

/// The watch watermark store: generational `watch.g<N>.ckpt` files in
/// the checkpoint directory, each a base plus a journal of deltas
/// ([`Journal`]: checksummed, fsynced, last two generations kept,
/// invalidated by config-hash mismatch), and the record of what changed
/// since the last checkpoint.
pub(super) struct WatchStore {
    journal: Journal,
    pub(super) recorder: Recorder,
}

impl WatchStore {
    pub(super) fn open(
        dir: &Path,
        config: &WatchConfig,
        disk_faults: &DiskFaultPlan,
    ) -> Result<Self, CheckpointError> {
        let store = DurableStore::open(dir, watch_config_hash(config), vfs_for(disk_faults))
            .map_err(store_err)?;
        Ok(WatchStore {
            journal: Journal::new(store, "watch"),
            recorder: Recorder::default(),
        })
    }

    /// The durable-state ledger for this run's checkpoint directory.
    pub(super) fn stats(&self) -> DurabilityStats {
        self.journal.stats()
    }

    /// Persists `state`: a delta appended to the open generation, or a
    /// fresh base when the journal says so. A second checkpoint of the
    /// same tick has nothing to add and writes nothing.
    pub(super) fn checkpoint(&mut self, state: &WatchState) -> Result<(), CheckpointError> {
        if self.recorder.tick == Some(state.tick) {
            return Ok(());
        }
        let recorder = &self.recorder;
        self.journal
            .checkpoint(
                || {
                    let untracked_slots = state
                        .scheduler
                        .entries()
                        .map(|(_due, domain)| domain)
                        .filter(|domain| !state.tracked.contains_key(*domain));
                    encode(
                        state,
                        &Recorder::default(),
                        state
                            .tracked
                            .keys()
                            .map(String::as_str)
                            .chain(untracked_slots),
                    )
                },
                || encode(state, recorder, recorder.dirty.iter().map(String::as_str)),
            )
            .map_err(store_err)?;
        self.recorder.mark(state);
        Ok(())
    }

    /// Loads the newest verifiable generation: its base, then the
    /// verified prefix of its journal. Missing and stale outcomes start
    /// the daemon fresh; damage with something left to stand on — an
    /// older generation, or the frames before a damaged one — recovers
    /// (the run re-derives the lost tail deterministically); damage with
    /// no survivor is a structured [`CheckpointError::Unrecoverable`],
    /// never a silent cold start.
    pub(super) fn load(&mut self) -> Result<Loaded<WatchState>, CheckpointError> {
        let outcome = self
            .journal
            .load(
                |base| {
                    let mut state = WatchState::default();
                    apply(&mut state, base).then_some(state)
                },
                apply,
            )
            .map_err(store_err)?;
        let loaded = match outcome {
            LoadOutcome::Missing => return Ok(Loaded::Missing),
            LoadOutcome::Stale { .. } => return Ok(Loaded::Stale),
            LoadOutcome::Valid(state) => Loaded::Value(state),
            LoadOutcome::Recovered { value, skipped, .. } => {
                Loaded::Recovered(value, render_classes(&skipped))
            }
            LoadOutcome::Unrecoverable { classes } => {
                return Err(CheckpointError::Unrecoverable {
                    name: "watch".to_string(),
                    dir: self.journal.dir().display().to_string(),
                    detail: render_classes(&classes),
                })
            }
        };
        if let Loaded::Value(state) | Loaded::Recovered(state, _) = &loaded {
            self.recorder.mark(state);
        }
        Ok(loaded)
    }
}

// ---------------------------------------------------------------------------
// Encoder

/// The checkpoint document taking the state at `since`'s marks to
/// `state`; `domains` names the tracked entries and re-crawl slots that
/// changed in between (for a base: all of them).
fn encode<'a>(
    state: &WatchState,
    since: &Recorder,
    domains: impl Iterator<Item = &'a str>,
) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = write!(
        w,
        "{{\n\"from_tick\": {},\n\"next_seq\": {},\n\"tick\": {},\n\"counters\": {{",
        since.tick.unwrap_or(0),
        state.next_seq,
        state.tick
    );
    for (i, (name, value)) in state.counters.fields().iter().enumerate() {
        let _ = write!(w, "{}\"{name}\": {value}", sep(i));
    }
    w.push_str("},\n\"transport\": ");
    write_u64s(w, &transport_values(&state.transport));

    // The ingest queue is ascending seqs with few gaps (drops): runs.
    w.push_str(",\n\"ingest\": [");
    let mut runs = 0;
    let mut seqs = state.ingest.iter().copied().peekable();
    while let Some(start) = seqs.next() {
        let mut len = 1;
        while seqs.next_if_eq(&(start + len)).is_some() {
            len += 1;
        }
        let _ = write!(w, "{}[{start}, {len}]", sep(runs));
        runs += 1;
    }

    // The candidate queue holds at most `candidate_capacity` (32)
    // entries, so the two set differences are linear scans.
    w.push_str("],\n\"candidates_gone\": ");
    let gone: Vec<u64> = since
        .candidates
        .iter()
        .copied()
        .filter(|&seq| !state.candidates.iter().any(|c| c.seq == seq))
        .collect();
    write_u64s(w, &gone);
    w.push_str(",\n\"candidates\": [");
    let pushed = state
        .candidates
        .iter()
        .filter(|c| !since.candidates.contains(&c.seq));
    for (i, c) in pushed.enumerate() {
        let _ = write!(
            w,
            "{}\n{{\"seq\": {}, \"domain\": \"{}\", \"brand\": {}, \"type\": \"{}\", \"ip\": ",
            sep(i),
            c.seq,
            escape(&c.domain),
            c.brand,
            c.squat_type.name()
        );
        write_ip(w, c.ip);
        let _ = write!(w, ", \"detected_tick\": {}}}", c.detected_tick);
    }

    // One row per changed domain: `[domain, due]` when it is no longer
    // tracked, else `[domain, due, brand, type, ip × 4, first_live_tick,
    // crawls, blacklist_day, blacklisted]`; `due` and `blacklist_day`
    // may be null.
    w.push_str("],\n\"domains\": [");
    for (i, domain) in domains.enumerate() {
        let _ = write!(w, "{}\n[\"{}\", ", sep(i), escape(domain));
        write_opt(w, state.scheduler.due_tick(domain));
        if let Some(t) = state.tracked.get(domain) {
            let [a, b, c, d] = t.ip.octets();
            let _ = write!(
                w,
                ", {}, \"{}\", {a}, {b}, {c}, {d}, {}, {}, ",
                t.brand,
                t.squat_type.name(),
                t.first_live_tick,
                t.crawls
            );
            write_opt(w, t.blacklist_day.map(u64::from));
            let _ = write!(w, ", {}", u8::from(t.blacklisted));
        }
        w.push(']');
    }

    // One row per sweep, columns in `WatchMetrics::fields` order.
    w.push_str("],\n\"metrics\": [");
    for (i, m) in state.metrics[since.metrics..].iter().enumerate() {
        w.push_str(sep(i));
        w.push('\n');
        write_u64s(w, &m.fields().map(|(_name, value)| value));
    }
    w.push_str("]\n}\n");
    out
}

fn sep(index: usize) -> &'static str {
    if index == 0 {
        ""
    } else {
        ", "
    }
}

fn write_u64s(w: &mut String, values: &[u64]) {
    w.push('[');
    for (i, v) in values.iter().enumerate() {
        let _ = write!(w, "{}{v}", sep(i));
    }
    w.push(']');
}

fn write_opt(w: &mut String, value: Option<u64>) {
    match value {
        Some(v) => {
            let _ = write!(w, "{v}");
        }
        None => w.push_str("null"),
    }
}

fn write_ip(w: &mut String, ip: Ipv4Addr) {
    write_u64s(w, &ip.octets().map(u64::from));
}

/// The transport block as a row, in declaration order
/// ([`transport_from_values`] is its inverse).
fn transport_values(t: &TransportSnapshot) -> [u64; 16] {
    let (e, j) = (t.errors, t.injected);
    [
        t.attempts,
        t.successes,
        t.retries,
        t.backoff_ns,
        e[0],
        e[1],
        e[2],
        e[3],
        j[0],
        j[1],
        j[2],
        j[3],
        t.breaker_trips,
        t.breaker_short_circuits,
        t.fetch_deadline_hits,
        t.crawl_deadline_hits,
    ]
}

fn transport_from_values(v: [u64; 16]) -> TransportSnapshot {
    TransportSnapshot {
        attempts: v[0],
        successes: v[1],
        retries: v[2],
        backoff_ns: v[3],
        errors: [v[4], v[5], v[6], v[7]],
        injected: [v[8], v[9], v[10], v[11]],
        breaker_trips: v[12],
        breaker_short_circuits: v[13],
        fetch_deadline_hits: v[14],
        crawl_deadline_hits: v[15],
    }
}

// ---------------------------------------------------------------------------
// Decoder

/// A decoded checkpoint document. Decoding is all-or-nothing and comes
/// first, so a document that does not decode leaves the state it was
/// meant for untouched.
struct Delta {
    from_tick: u64,
    next_seq: u64,
    tick: u64,
    counters: WatchCounters,
    transport: TransportSnapshot,
    /// Runs of consecutive seqs, as `start..end`.
    ingest: Vec<std::ops::Range<u64>>,
    candidates_gone: Vec<u64>,
    candidates: Vec<Candidate>,
    domains: Vec<(String, Option<u64>, Option<Tracked>)>,
    metrics: Vec<WatchMetrics>,
}

/// Folds one checkpoint document into `state`; `false` — and `state`
/// untouched — when the text is not a document or does not start from
/// `state`'s tick.
fn apply(state: &mut WatchState, text: &str) -> bool {
    let Some(delta) = json::parse(text).ok().as_ref().and_then(Delta::decode) else {
        return false;
    };
    if delta.from_tick != state.tick {
        return false;
    }
    state.next_seq = delta.next_seq;
    state.tick = delta.tick;
    state.counters = delta.counters;
    state.transport = delta.transport;
    state.ingest = delta.ingest.into_iter().flatten().collect();
    state
        .candidates
        .retain(|c| !delta.candidates_gone.contains(&c.seq));
    state.candidates.extend(delta.candidates);
    for (domain, due, tracked) in delta.domains {
        match due {
            Some(tick) => state.scheduler.schedule(tick, &domain),
            None => {
                state.scheduler.cancel(&domain);
            }
        }
        match tracked {
            Some(entry) => {
                state.tracked.insert(domain, entry);
            }
            None => {
                state.tracked.remove(&domain);
            }
        }
    }
    state.metrics.extend(delta.metrics);
    true
}

impl Delta {
    fn decode(v: &json::Value) -> Option<Delta> {
        let counters = v.get("counters")?;
        let next_seq = v.get("next_seq")?.as_u64()?;
        Some(Delta {
            from_tick: v.get("from_tick")?.as_u64()?,
            next_seq,
            tick: v.get("tick")?.as_u64()?,
            counters: WatchCounters::from_fields(|name| counters.get(name)?.as_u64())?,
            transport: transport_from_values(decode_u64s(v.get("transport")?)?),
            ingest: decode_each(v.get("ingest")?, |run| {
                // Queued events are below the watermark, which also bounds
                // what a run can make `apply` allocate.
                let [start, len] = decode_u64s(run)?;
                let end = start.checked_add(len).filter(|&end| end <= next_seq)?;
                Some(start..end)
            })?,
            candidates_gone: decode_each(v.get("candidates_gone")?, json::Value::as_u64)?,
            candidates: decode_each(v.get("candidates")?, |c| {
                Some(Candidate {
                    seq: c.get("seq")?.as_u64()?,
                    domain: c.get("domain")?.as_str()?.to_string(),
                    brand: c.get("brand")?.as_usize()?,
                    squat_type: parse_squat_type(c.get("type")?.as_str()?)?,
                    ip: decode_ip(c.get("ip")?)?,
                    detected_tick: c.get("detected_tick")?.as_u64()?,
                })
            })?,
            domains: decode_each(v.get("domains")?, |row| {
                let row = row.as_arr()?;
                let tracked = match row {
                    [_, _] => None,
                    [_, _, brand, squat_type, a, b, c, d, first_live_tick, crawls, day, listed] => {
                        let octet = |v: &json::Value| u8::try_from(v.as_u64()?).ok();
                        Some(Tracked {
                            brand: brand.as_usize()?,
                            squat_type: parse_squat_type(squat_type.as_str()?)?,
                            ip: Ipv4Addr::new(octet(a)?, octet(b)?, octet(c)?, octet(d)?),
                            first_live_tick: first_live_tick.as_u64()?,
                            crawls: crawls.as_u64()?,
                            blacklist_day: match decode_opt(day)? {
                                Some(day) => Some(u32::try_from(day).ok()?),
                                None => None,
                            },
                            blacklisted: listed.as_u64()? != 0,
                        })
                    }
                    _ => return None,
                };
                Some((row[0].as_str()?.to_string(), decode_opt(&row[1])?, tracked))
            })?,
            metrics: decode_each(v.get("metrics")?, |row| {
                Some(WatchMetrics::from_values(decode_u64s(row)?))
            })?,
        })
    }
}

fn decode_each<T>(v: &json::Value, item: impl Fn(&json::Value) -> Option<T>) -> Option<Vec<T>> {
    v.as_arr()?.iter().map(item).collect()
}

fn decode_u64s<const N: usize>(v: &json::Value) -> Option<[u64; N]> {
    decode_each(v, json::Value::as_u64)?.try_into().ok()
}

/// `null` or a number.
fn decode_opt(v: &json::Value) -> Option<Option<u64>> {
    if v.is_null() {
        Some(None)
    } else {
        v.as_u64().map(Some)
    }
}

fn decode_ip(v: &json::Value) -> Option<Ipv4Addr> {
    let octets: [u64; 4] = decode_u64s(v)?;
    let octet = |i: usize| u8::try_from(octets[i]).ok();
    Some(Ipv4Addr::new(octet(0)?, octet(1)?, octet(2)?, octet(3)?))
}
