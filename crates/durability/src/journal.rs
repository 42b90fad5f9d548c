//! The delta journal: its frame codec and the [`Journal`] that decides,
//! checkpoint by checkpoint, between appending a delta and writing a
//! fresh base.
//!
//! A journaled generation file is one verified base `StateFile`
//! ([`store`](crate::store)) followed by zero or more appended frames:
//!
//! ```text
//! generation := statefile frame*
//! frame      := len:u32le crc32c:u32le payload[len]        ; len >= 1
//! ```
//!
//! The checksum covers the length word *and* the payload, so a flipped
//! bit in either is a mismatch, and an all-zero tail (a file extended
//! but never written) does not verify. Frames are only ever appended
//! ([`Vfs::append`](crate::vfs::Vfs::append)), so the one place a crash
//! can tear is the tail: a reader replays the verified prefix and stops
//! at the first frame that is short or fails its checksum — it never
//! resynchronises, so no frame after a damaged one is ever applied.
//!
//! **Compaction** — a fresh base through the tmp → fsync → rename →
//! dir-fsync → retire path — happens on one fixed rule,
//! [`Journal::checkpoint`]'s: when the frames already appended outweigh
//! the base they follow. The rule is a constant, not an option, because
//! it has no good setting to find: it bounds the replay a resume pays to
//! one base's worth of frames and the bytes ever written to a small
//! multiple of the state plus its deltas (bases grow geometrically, so
//! all of them together cost about as much as the last few), and any
//! ratio near one does the same. The first checkpoint after a
//! [`Journal::load`] is also a base, so a process never appends to a file
//! whose tail it has not written itself — in particular never after a
//! tail a crash tore.

use crate::crc32c::crc32c_parts;
use crate::store::{DurabilityStats, DurableStore, LoadOutcome, StoreError};
use std::path::Path;

/// Bytes of frame header (`len` + `crc32c`) before the payload.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Encodes `payload` as one frame.
///
/// # Panics
/// If `payload` is 4 GiB or more (a delta is kilobytes).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len())
        .expect("a journal frame is under 4 GiB")
        .to_le_bytes();
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len);
    frame.extend_from_slice(&crc32c_parts(&[&len, payload]).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// How a journal's frame sequence ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEnd {
    /// The last frame ends exactly at the end of the file.
    Clean,
    /// Frame `frame` (1-based) is cut short by the end of the file: the
    /// normal trace of a crash mid-append.
    Torn {
        /// The short frame.
        frame: u64,
    },
    /// Frame `frame` (1-based) is whole but fails its checksum (or has a
    /// zero length, which no writer emits): damage, not a crash.
    Corrupt {
        /// The damaged frame.
        frame: u64,
    },
}

/// Splits the bytes after a base into the payloads of the verified frame
/// prefix and how the sequence ended.
pub fn read_frames(mut bytes: &[u8]) -> (Vec<&[u8]>, JournalEnd) {
    let mut payloads = Vec::new();
    loop {
        let frame = payloads.len() as u64 + 1;
        if bytes.is_empty() {
            return (payloads, JournalEnd::Clean);
        }
        let Some((header, rest)) = bytes.split_first_chunk::<FRAME_HEADER_BYTES>() else {
            return (payloads, JournalEnd::Torn { frame });
        };
        let (len, crc) = header.split_at(4);
        let want = u32::from_le_bytes(len.try_into().expect("four length bytes")) as usize;
        if want == 0 {
            return (payloads, JournalEnd::Corrupt { frame });
        }
        let Some((payload, rest)) = rest.split_at_checked(want) else {
            return (payloads, JournalEnd::Torn { frame });
        };
        if crc32c_parts(&[len, payload]).to_le_bytes() != crc {
            return (payloads, JournalEnd::Corrupt { frame });
        }
        payloads.push(payload);
        bytes = rest;
    }
}

/// One named state of a [`DurableStore`], checkpointed as a base plus an
/// append-only journal of deltas.
pub struct Journal {
    store: DurableStore,
    name: String,
    /// The generation this process committed and may append to.
    open: Option<OpenGeneration>,
    /// Whether a [`Journal::load`] produced the state being checkpointed,
    /// which makes the next base a compaction of what was loaded.
    loaded: bool,
}

struct OpenGeneration {
    generation: u64,
    base_bytes: u64,
    journal_bytes: u64,
}

impl Journal {
    /// Journals the state `name` of `store`.
    pub fn new(store: DurableStore, name: &str) -> Journal {
        Journal {
            store,
            name: name.to_string(),
            open: None,
            loaded: false,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// A point-in-time copy of the store's ledger.
    pub fn stats(&self) -> DurabilityStats {
        self.store.stats()
    }

    /// [`DurableStore::load_journal`] for this state.
    pub fn load<T>(
        &mut self,
        decode: impl Fn(&str) -> Option<T>,
        apply: impl Fn(&mut T, &str) -> bool,
    ) -> Result<LoadOutcome<T>, StoreError> {
        let outcome = self.store.load_journal(&self.name, decode, apply)?;
        self.loaded = matches!(
            outcome,
            LoadOutcome::Valid(_) | LoadOutcome::Recovered { .. }
        );
        Ok(outcome)
    }

    /// Durably records the state's current value: appends `delta()` —
    /// what changed since the previous checkpoint — to the open
    /// generation's journal, or commits `base()` — the whole value — as a
    /// new generation when there is no open generation yet or its journal
    /// outweighs its base (the compaction rule; see the module docs).
    /// Only the encoder that is needed runs.
    pub fn checkpoint(
        &mut self,
        base: impl FnOnce() -> String,
        delta: impl FnOnce() -> String,
    ) -> Result<(), StoreError> {
        match &mut self.open {
            Some(open) if open.journal_bytes <= open.base_bytes => {
                open.journal_bytes += self.store.append(&self.name, open.generation, &delta())?;
            }
            folded => {
                let (generation, base_bytes) = self.store.commit(&self.name, &base())?;
                if folded.is_some() || self.loaded {
                    self.store.counters().note_compaction();
                }
                *folded = Some(OpenGeneration {
                    generation,
                    base_bytes,
                    journal_bytes: 0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(payloads: &[&[u8]]) -> Vec<u8> {
        payloads.iter().flat_map(|p| encode_frame(p)).collect()
    }

    #[test]
    fn frames_round_trip_in_order() {
        let payloads: [&[u8]; 3] = [b"one", b"{\"two\": 2}", &[0u8, 255, 7]];
        let bytes = journal(&payloads);
        let (read, end) = read_frames(&bytes);
        assert_eq!(read, payloads);
        assert_eq!(end, JournalEnd::Clean);
        assert_eq!(read_frames(&[]), (vec![], JournalEnd::Clean));
    }

    #[test]
    fn a_short_tail_is_torn_and_keeps_the_prefix() {
        let bytes = journal(&[b"first", b"second"]);
        let first = FRAME_HEADER_BYTES + 5;
        for cut in first + 1..bytes.len() {
            let (read, end) = read_frames(&bytes[..cut]);
            assert_eq!(read, [b"first"], "cut at {cut}");
            assert_eq!(end, JournalEnd::Torn { frame: 2 }, "cut at {cut}");
        }
    }

    #[test]
    fn zeroed_and_flipped_frames_are_corrupt() {
        let mut bytes = journal(&[b"first", b"second"]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let (read, end) = read_frames(&bytes);
        assert_eq!(read, [b"first"]);
        assert_eq!(end, JournalEnd::Corrupt { frame: 2 });
        // A tail the file system extended but never filled.
        let (read, end) = read_frames(&[0u8; 64]);
        assert!(read.is_empty());
        assert_eq!(end, JournalEnd::Corrupt { frame: 1 });
    }
}
