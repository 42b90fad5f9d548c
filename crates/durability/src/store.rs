//! The generational durable store and its `StateFile` codec.
//!
//! Every persisted state in the workspace (pipeline stage checkpoints,
//! the watch watermark) routes through a [`DurableStore`]. A state is a
//! named sequence of **generations** on disk — `<name>.g<N>.ckpt` with
//! monotonically increasing `N` — of which the latest two are kept.
//! Each generation is a self-verifying `StateFile`:
//!
//! ```text
//! squatphi-state crc32c=<8 hex> len=<decimal>\n   ← unprotected header
//! v<version> config=<16 hex> gen=<N>\n            ┐ protected region
//! <body bytes>                                    ┘ (crc32c over both)
//! ```
//!
//! The CRC covers the version/config/generation line *and* the body, so
//! a single flipped bit anywhere below the first newline is a checksum
//! mismatch rather than a silently different config hash. Writes are
//! tmp-file + fsync + rename + parent-dir fsync through the
//! [`Vfs`] seam, then older generations are retired.
//!
//! Reads walk generations newest-first, classifying each file
//! ([`ReadClass`]) and falling back until a generation verifies and
//! decodes. Every load resolves to exactly one [`LoadOutcome`], and the
//! [`DurabilityCounters`] ledger records both the per-generation classes
//! and the per-load outcomes, with the conservation identity
//! `reads == valid + recovered + recomputed + unrecoverable` enforced
//! declaratively by `squatphi_telemetry::invariants::durability_invariants`.
//!
//! A state that changes a little between checkpoints is *journaled*
//! ([`Journal`](crate::journal::Journal)): its generation file is a base
//! `StateFile` followed by appended delta frames
//! ([`DurableStore::append`]), and [`DurableStore::load_journal`] replays
//! the verified frame prefix over the decoded base. A write-once state
//! ([`DurableStore::save`] / [`DurableStore::load_with`]) has no frames,
//! and bytes after its base are damage.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::crc32c::crc32c;
use crate::journal::{encode_frame, read_frames, JournalEnd};
use crate::vfs::{RealVfs, Vfs};

/// `StateFile` format version; bumping it invalidates (as
/// [`ReadClass::StaleConfig`]) every existing generation.
pub const STATE_VERSION: u64 = 1;

const MAGIC: &str = "squatphi-state";
const SUFFIX: &str = ".ckpt";

/// What the reader concluded about one generation file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// Checksum, header and codec all verified.
    Valid,
    /// Structurally sound, but written by a different config or format
    /// version — honest invalidation, not corruption.
    StaleConfig,
    /// The unprotected header line is absent or malformed.
    CorruptHeader,
    /// The protected region fails its checksum, has trailing garbage, or
    /// does not decode.
    CorruptBody,
    /// The file ends before `len` protected bytes — a torn write.
    Torn,
    /// No generation file exists (or one vanished between list and read).
    Missing,
}

impl ReadClass {
    /// Stable snake_case name (telemetry leaf and report wording).
    pub fn name(&self) -> &'static str {
        match self {
            ReadClass::Valid => "valid",
            ReadClass::StaleConfig => "stale_config",
            ReadClass::CorruptHeader => "corrupt_header",
            ReadClass::CorruptBody => "corrupt_body",
            ReadClass::Torn => "torn",
            ReadClass::Missing => "missing",
        }
    }

    /// Whether this class means bytes were lost or mangled (as opposed to
    /// an honest cold start or config change).
    pub fn is_damage(&self) -> bool {
        matches!(
            self,
            ReadClass::CorruptHeader | ReadClass::CorruptBody | ReadClass::Torn
        )
    }
}

/// One skipped generation — or one journal frame of a generation whose
/// base verified — and why it was skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenClass {
    /// The generation number from the file name.
    pub generation: u64,
    /// How the reader classified it.
    pub class: ReadClass,
    /// The damaged journal frame (1-based) when the generation's base
    /// verified and the replay stopped short; `None` for a skipped file.
    pub frame: Option<u64>,
}

impl fmt::Display for GenClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.generation)?;
        if let Some(frame) = self.frame {
            write!(f, " frame {frame}")?;
        }
        write!(f, " {}", self.class.name())
    }
}

/// Renders a skipped-generation list for reports:
/// `g4 torn, g3 frame 7 corrupt_body`.
pub fn render_classes(classes: &[GenClass]) -> String {
    classes
        .iter()
        .map(GenClass::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// How one [`DurableStore::load_with`] call resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome<T> {
    /// No generation files exist: a cold start.
    Missing,
    /// The newest generation verified and decoded.
    Valid(T),
    /// The newest generation(s) were damaged and an older one verified,
    /// or a journal replay stopped at a damaged frame.
    Recovered {
        /// The decoded state.
        value: T,
        /// The generation that verified.
        generation: u64,
        /// The newer generations that were skipped, newest first, then
        /// the damaged frame of `generation` itself, if any.
        skipped: Vec<GenClass>,
    },
    /// The newest readable generation belongs to a different config or
    /// format version — recompute, nothing was lost.
    Stale {
        /// Classification of every generation inspected, newest first.
        classes: Vec<GenClass>,
    },
    /// Generations exist but none verified for this config: state was
    /// durably written and has been lost. Callers resuming from this
    /// store should surface a structured error, not silently recompute.
    Unrecoverable {
        /// Classification of every generation inspected, newest first.
        classes: Vec<GenClass>,
    },
}

/// A store-level I/O failure (distinct from corruption, which the
/// classifier absorbs into [`LoadOutcome`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "durable store io at {path}: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Parses exactly `digits` lowercase hex digits (rejecting uppercase,
/// signs and whitespace, which `from_str_radix` would let through).
fn parse_hex_lower(s: &str, digits: usize) -> Option<u64> {
    if s.len() != digits
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Parses a bare decimal (no sign, no leading `+` that `parse` accepts).
fn parse_decimal(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn io_err(path: &Path, err: io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

/// Monotonic fault/outcome ledger for one store (shared, atomic).
#[derive(Debug, Default)]
pub struct DurabilityCounters {
    reads: AtomicU64,
    valid: AtomicU64,
    recovered: AtomicU64,
    recomputed: AtomicU64,
    unrecoverable: AtomicU64,
    writes: AtomicU64,
    retired: AtomicU64,
    appends: AtomicU64,
    compactions: AtomicU64,
    frames_read: AtomicU64,
    frames_applied: AtomicU64,
    frames_discarded: AtomicU64,
    class_valid: AtomicU64,
    class_stale_config: AtomicU64,
    class_corrupt_header: AtomicU64,
    class_corrupt_body: AtomicU64,
    class_torn: AtomicU64,
    class_missing: AtomicU64,
}

impl DurabilityCounters {
    pub(crate) fn note_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    fn note_class(&self, class: ReadClass) {
        let cell = match class {
            ReadClass::Valid => &self.class_valid,
            ReadClass::StaleConfig => &self.class_stale_config,
            ReadClass::CorruptHeader => &self.class_corrupt_header,
            ReadClass::CorruptBody => &self.class_corrupt_body,
            ReadClass::Torn => &self.class_torn,
            ReadClass::Missing => &self.class_missing,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the ledger.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            reads: self.reads.load(Ordering::Relaxed),
            valid: self.valid.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            recomputed: self.recomputed.load(Ordering::Relaxed),
            unrecoverable: self.unrecoverable.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_applied: self.frames_applied.load(Ordering::Relaxed),
            frames_discarded: self.frames_discarded.load(Ordering::Relaxed),
            class_valid: self.class_valid.load(Ordering::Relaxed),
            class_stale_config: self.class_stale_config.load(Ordering::Relaxed),
            class_corrupt_header: self.class_corrupt_header.load(Ordering::Relaxed),
            class_corrupt_body: self.class_corrupt_body.load(Ordering::Relaxed),
            class_torn: self.class_torn.load(Ordering::Relaxed),
            class_missing: self.class_missing.load(Ordering::Relaxed),
        }
    }
}

/// Plain snapshot of a [`DurabilityCounters`] ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// `load_with` calls.
    pub reads: u64,
    /// Loads satisfied by the newest generation.
    pub valid: u64,
    /// Loads satisfied by an older generation after skipping damage.
    pub recovered: u64,
    /// Loads that resolved to recompute (cold start or stale config).
    pub recomputed: u64,
    /// Loads where every generation was damaged.
    pub unrecoverable: u64,
    /// Committed base writes (`save` calls that renamed into place).
    pub writes: u64,
    /// Old generation files retired after a commit.
    pub retired: u64,
    /// Delta frames durably appended to a generation's journal.
    pub appends: u64,
    /// Base writes that folded a journal (or a resumed state) into a
    /// fresh generation; a subset of `writes`.
    pub compactions: u64,
    /// Journal frames a load examined, the damaged one included.
    pub frames_read: u64,
    /// Frames that verified and were replayed over their base.
    pub frames_applied: u64,
    /// Frames examined but not replayed: torn, corrupt, or inapplicable.
    pub frames_discarded: u64,
    /// Per-generation classifications (one per file inspected).
    pub class_valid: u64,
    /// See [`ReadClass::StaleConfig`].
    pub class_stale_config: u64,
    /// See [`ReadClass::CorruptHeader`].
    pub class_corrupt_header: u64,
    /// See [`ReadClass::CorruptBody`].
    pub class_corrupt_body: u64,
    /// See [`ReadClass::Torn`].
    pub class_torn: u64,
    /// See [`ReadClass::Missing`].
    pub class_missing: u64,
}

impl DurabilityStats {
    /// Exports the ledger under `scope` (canonically `durability.`):
    /// outcome counters at the top level, per-generation classes under
    /// `class.`.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        scope.set_u64("reads", self.reads);
        scope.set_u64("valid", self.valid);
        scope.set_u64("recovered", self.recovered);
        scope.set_u64("recomputed", self.recomputed);
        scope.set_u64("unrecoverable", self.unrecoverable);
        scope.set_u64("writes", self.writes);
        scope.set_u64("retired", self.retired);
        scope.set_u64("appends", self.appends);
        scope.set_u64("compactions", self.compactions);
        scope.set_u64("frames_read", self.frames_read);
        scope.set_u64("frames_applied", self.frames_applied);
        scope.set_u64("frames_discarded", self.frames_discarded);
        let class = scope.scope("class");
        class.set_u64("valid", self.class_valid);
        class.set_u64("stale_config", self.class_stale_config);
        class.set_u64("corrupt_header", self.class_corrupt_header);
        class.set_u64("corrupt_body", self.class_corrupt_body);
        class.set_u64("torn", self.class_torn);
        class.set_u64("missing", self.class_missing);
    }

    /// Whether the ledger conserves:
    /// `reads == valid + recovered + recomputed + unrecoverable` and
    /// `frames_read == frames_applied + frames_discarded`.
    pub fn reconciles(&self) -> bool {
        self.reads == self.valid + self.recovered + self.recomputed + self.unrecoverable
            && self.frames_read == self.frames_applied + self.frames_discarded
    }

    /// One-line human report.
    pub fn report_line(&self) -> String {
        format!(
            "{} writes ({} retired, {} compactions), {} appends, {} reads: {} valid, \
             {} recovered, {} recomputed, {} unrecoverable, {} frames: {} applied, \
             {} discarded [{}]",
            self.writes,
            self.retired,
            self.compactions,
            self.appends,
            self.reads,
            self.valid,
            self.recovered,
            self.recomputed,
            self.unrecoverable,
            self.frames_read,
            self.frames_applied,
            self.frames_discarded,
            if self.reconciles() {
                "reconciled"
            } else {
                "UNRECONCILED"
            },
        )
    }

    /// Field-wise sum (for aggregating multiple stores into one ledger).
    pub fn absorb(&mut self, other: &DurabilityStats) {
        self.reads += other.reads;
        self.valid += other.valid;
        self.recovered += other.recovered;
        self.recomputed += other.recomputed;
        self.unrecoverable += other.unrecoverable;
        self.writes += other.writes;
        self.retired += other.retired;
        self.appends += other.appends;
        self.compactions += other.compactions;
        self.frames_read += other.frames_read;
        self.frames_applied += other.frames_applied;
        self.frames_discarded += other.frames_discarded;
        self.class_valid += other.class_valid;
        self.class_stale_config += other.class_stale_config;
        self.class_corrupt_header += other.class_corrupt_header;
        self.class_corrupt_body += other.class_corrupt_body;
        self.class_torn += other.class_torn;
        self.class_missing += other.class_missing;
    }
}

/// A directory of named, checksummed, generational states bound to one
/// config hash.
pub struct DurableStore {
    dir: PathBuf,
    config: u64,
    vfs: Arc<dyn Vfs>,
    counters: Arc<DurabilityCounters>,
}

impl DurableStore {
    /// Opens (creating if needed) the store at `dir`, bound to `config`,
    /// writing through `vfs`.
    pub fn open(dir: &Path, config: u64, vfs: Arc<dyn Vfs>) -> Result<DurableStore, StoreError> {
        vfs.create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            config,
            vfs,
            counters: Arc::new(DurabilityCounters::default()),
        })
    }

    /// [`DurableStore::open`] on the production filesystem.
    pub fn open_real(dir: &Path, config: u64) -> Result<DurableStore, StoreError> {
        DurableStore::open(dir, config, Arc::new(RealVfs))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared ledger.
    pub fn counters(&self) -> Arc<DurabilityCounters> {
        Arc::clone(&self.counters)
    }

    /// A point-in-time copy of the ledger.
    pub fn stats(&self) -> DurabilityStats {
        self.counters.stats()
    }

    fn gen_path(&self, name: &str, generation: u64) -> PathBuf {
        self.dir.join(format!("{name}.g{generation}{SUFFIX}"))
    }

    /// Generation numbers present for `name`, ascending.
    pub fn generations(&self, name: &str) -> Result<Vec<u64>, StoreError> {
        let prefix = format!("{name}.g");
        let mut gens = Vec::new();
        for file in self.vfs.list(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let Some(rest) = file.strip_prefix(&prefix) else {
                continue;
            };
            let Some(number) = rest.strip_suffix(SUFFIX) else {
                continue;
            };
            if !number.is_empty() && number.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(n) = number.parse::<u64>() {
                    gens.push(n);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Encodes one generation as `StateFile` bytes.
    fn encode(&self, generation: u64, body: &str) -> Vec<u8> {
        let protected = format!(
            "v{STATE_VERSION} config={:016x} gen={generation}\n{body}",
            self.config
        );
        let head = format!(
            "{MAGIC} crc32c={:08x} len={}\n",
            crc32c(protected.as_bytes()),
            protected.len()
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(protected.as_bytes());
        bytes
    }

    /// Classifies one generation file's bytes; `Ok` carries the body and
    /// the bytes after the protected region — the journal when
    /// `journaled`, and otherwise empty, because a write-once state's
    /// trailing bytes are damage.
    fn classify<'b>(
        &self,
        expected_gen: u64,
        bytes: &'b [u8],
        journaled: bool,
    ) -> Result<(String, &'b [u8]), ReadClass> {
        // Unprotected header line: `squatphi-state crc32c=<8hex> len=<dec>`.
        let nl = bytes
            .iter()
            .take(64)
            .position(|&b| b == b'\n')
            .ok_or(ReadClass::CorruptHeader)?;
        let head = std::str::from_utf8(&bytes[..nl]).map_err(|_| ReadClass::CorruptHeader)?;
        let mut fields = head.split(' ');
        if fields.next() != Some(MAGIC) {
            return Err(ReadClass::CorruptHeader);
        }
        let crc_field = fields.next().ok_or(ReadClass::CorruptHeader)?;
        let len_field = fields.next().ok_or(ReadClass::CorruptHeader)?;
        if fields.next().is_some() {
            return Err(ReadClass::CorruptHeader);
        }
        // Strict field syntax: exactly-lowercase hex and bare decimal
        // digits. `from_str_radix`/`parse` alone would also accept
        // uppercase hex and a leading `+`, letting a single flipped case
        // bit in the checksum field go unnoticed.
        let crc_hex = crc_field
            .strip_prefix("crc32c=")
            .ok_or(ReadClass::CorruptHeader)?;
        let crc = parse_hex_lower(crc_hex, 8).ok_or(ReadClass::CorruptHeader)? as u32;
        let len = len_field
            .strip_prefix("len=")
            .and_then(parse_decimal)
            .ok_or(ReadClass::CorruptHeader)? as usize;

        // Protected region: exact length, then checksum.
        let Some((protected, journal)) = bytes[nl + 1..].split_at_checked(len) else {
            return Err(ReadClass::Torn);
        };
        if !journaled && !journal.is_empty() {
            return Err(ReadClass::CorruptBody);
        }
        if crc32c(protected) != crc {
            return Err(ReadClass::CorruptBody);
        }
        let protected = std::str::from_utf8(protected).map_err(|_| ReadClass::CorruptBody)?;

        // Inner metadata line: `v<version> config=<16hex> gen=<N>`. The CRC
        // already vouched for the bytes, so a parse failure here is a
        // writer bug, classified as a corrupt header rather than a panic.
        let (meta, body) = protected.split_once('\n').ok_or(ReadClass::CorruptHeader)?;
        let mut fields = meta.split(' ');
        let version = fields
            .next()
            .and_then(|v| v.strip_prefix('v'))
            .and_then(parse_decimal)
            .ok_or(ReadClass::CorruptHeader)?;
        let config = fields
            .next()
            .and_then(|v| v.strip_prefix("config="))
            .and_then(|v| parse_hex_lower(v, 16))
            .ok_or(ReadClass::CorruptHeader)?;
        let generation = fields
            .next()
            .and_then(|v| v.strip_prefix("gen="))
            .and_then(parse_decimal)
            .ok_or(ReadClass::CorruptHeader)?;
        if fields.next().is_some() {
            return Err(ReadClass::CorruptHeader);
        }
        if version != STATE_VERSION {
            return Err(ReadClass::StaleConfig);
        }
        if generation != expected_gen {
            return Err(ReadClass::CorruptHeader);
        }
        if config != self.config {
            return Err(ReadClass::StaleConfig);
        }
        Ok((body.to_string(), journal))
    }

    /// Durably commits `body` as the next generation of `name` and
    /// retires all but the latest two generations. Returns the committed
    /// generation number.
    ///
    /// Commit order: write + fsync the temp file, rename it into place,
    /// fsync the directory, then retire old generations — so a crash at
    /// any point leaves either the previous generations intact or the
    /// new one fully durable (plus, at worst, an ignored temp file or an
    /// unretired old generation).
    pub fn save(&self, name: &str, body: &str) -> Result<u64, StoreError> {
        self.commit(name, body)
            .map(|(generation, _bytes)| generation)
    }

    /// [`DurableStore::save`], also returning the committed file's size.
    pub(crate) fn commit(&self, name: &str, body: &str) -> Result<(u64, u64), StoreError> {
        let gens = self.generations(name)?;
        let next = gens.last().map_or(1, |g| g + 1);
        let path = self.gen_path(name, next);
        let tmp = self.dir.join(format!("{name}.g{next}{SUFFIX}.tmp"));
        let bytes = self.encode(next, body);
        self.vfs.write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
        self.vfs.rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        for &old in gens.iter().rev().skip(1) {
            let old_path = self.gen_path(name, old);
            match self.vfs.remove(&old_path) {
                Ok(()) => {
                    self.counters.retired.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&old_path, e)),
            }
        }
        Ok((next, bytes.len() as u64))
    }

    /// Durably appends `payload` as one checksummed frame to the journal
    /// of `name`'s committed `generation` (one write, one fsync; no
    /// rename, no directory sync). Returns the frame's size on disk. An
    /// empty payload writes nothing.
    pub fn append(&self, name: &str, generation: u64, payload: &str) -> Result<u64, StoreError> {
        if payload.is_empty() {
            return Ok(0);
        }
        let path = self.gen_path(name, generation);
        let frame = encode_frame(payload.as_bytes());
        self.vfs
            .append(&path, &frame)
            .map_err(|e| io_err(&path, e))?;
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        Ok(frame.len() as u64)
    }

    /// Loads the newest verifiable generation of `name`, decoding its
    /// body with `decode` (`None` = the body does not decode, classified
    /// as [`ReadClass::CorruptBody`]). Walks generations newest-first and
    /// resolves to exactly one [`LoadOutcome`]; `Err` is reserved for
    /// store-level I/O failures.
    pub fn load_with<T>(
        &self,
        name: &str,
        decode: impl Fn(&str) -> Option<T>,
    ) -> Result<LoadOutcome<T>, StoreError> {
        self.walk(name, |generation, bytes| {
            let (body, _) = self.classify(generation, bytes, false)?;
            let value = decode(&body).ok_or(ReadClass::CorruptBody)?;
            Ok((value, None))
        })
    }

    /// [`DurableStore::load_with`] for a journaled state: decodes the
    /// newest verifiable base, then replays its journal — `apply` folds
    /// one frame's payload into the value (`false` = the frame does not
    /// apply) — and stops at the first frame that is torn, fails its
    /// checksum or does not apply, never applying a later one.
    ///
    /// A torn *tail* is the normal trace of a crash mid-append and leaves
    /// the outcome [`LoadOutcome::Valid`]; a corrupt or inapplicable frame
    /// is damage, reported as [`LoadOutcome::Recovered`] with the frame
    /// named. A damaged base falls back to the previous generation (its
    /// base and its journal), as in `load_with`.
    pub fn load_journal<T>(
        &self,
        name: &str,
        decode: impl Fn(&str) -> Option<T>,
        apply: impl Fn(&mut T, &str) -> bool,
    ) -> Result<LoadOutcome<T>, StoreError> {
        self.walk(name, |generation, bytes| {
            let (body, journal) = self.classify(generation, bytes, true)?;
            let mut value = decode(&body).ok_or(ReadClass::CorruptBody)?;
            let (payloads, end) = read_frames(journal);
            let read = payloads.len() as u64 + u64::from(end != JournalEnd::Clean);
            let applied = payloads
                .iter()
                .take_while(|payload| {
                    std::str::from_utf8(payload).is_ok_and(|delta| apply(&mut value, delta))
                })
                .count() as u64;
            let c = &self.counters;
            c.frames_read.fetch_add(read, Ordering::Relaxed);
            c.frames_applied.fetch_add(applied, Ordering::Relaxed);
            c.frames_discarded
                .fetch_add(read - applied, Ordering::Relaxed);
            // A short tail is what a crash mid-append leaves: the normal
            // end of a journal, not damage.
            let damaged = if applied < payloads.len() as u64 {
                Some(applied + 1)
            } else if let JournalEnd::Corrupt { frame } = end {
                Some(frame)
            } else {
                None
            };
            let note = damaged.map(|frame| GenClass {
                generation,
                class: ReadClass::CorruptBody,
                frame: Some(frame),
            });
            Ok((value, note))
        })
    }

    /// The generational read every load shares: walks `name`'s files
    /// newest-first, `open`ing each (`Err` = its classification, `Ok` =
    /// the value plus the damaged journal frame it stopped at, if any),
    /// and resolves to exactly one accounted [`LoadOutcome`].
    fn walk<T>(
        &self,
        name: &str,
        open: impl Fn(u64, &[u8]) -> Result<(T, Option<GenClass>), ReadClass>,
    ) -> Result<LoadOutcome<T>, StoreError> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        let gens = self.generations(name)?;
        if gens.is_empty() {
            self.counters.note_class(ReadClass::Missing);
            self.counters.recomputed.fetch_add(1, Ordering::Relaxed);
            return Ok(LoadOutcome::Missing);
        }
        let mut skipped: Vec<GenClass> = Vec::new();
        for &generation in gens.iter().rev() {
            let path = self.gen_path(name, generation);
            let class = match self.vfs.read(&path) {
                Ok(bytes) => match open(generation, &bytes) {
                    Ok((value, damaged_frame)) => {
                        self.counters.note_class(ReadClass::Valid);
                        skipped.extend(damaged_frame);
                        if skipped.is_empty() {
                            self.counters.valid.fetch_add(1, Ordering::Relaxed);
                            return Ok(LoadOutcome::Valid(value));
                        }
                        self.counters.recovered.fetch_add(1, Ordering::Relaxed);
                        return Ok(LoadOutcome::Recovered {
                            value,
                            generation,
                            skipped,
                        });
                    }
                    Err(class) => class,
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => ReadClass::Missing,
                Err(e) => return Err(io_err(&path, e)),
            };
            self.counters.note_class(class);
            skipped.push(GenClass {
                generation,
                class,
                frame: None,
            });
            if class == ReadClass::StaleConfig {
                // An honest config/version change. If nothing newer was
                // damaged this is a clean recompute; if damaged newer
                // generations were skipped we cannot rule out data loss
                // for the *current* config, so stay conservative.
                return Ok(if skipped.iter().any(|g| g.class.is_damage()) {
                    self.counters.unrecoverable.fetch_add(1, Ordering::Relaxed);
                    LoadOutcome::Unrecoverable { classes: skipped }
                } else {
                    self.counters.recomputed.fetch_add(1, Ordering::Relaxed);
                    LoadOutcome::Stale { classes: skipped }
                });
            }
        }
        if skipped.iter().all(|g| g.class == ReadClass::Missing) {
            // Every listed file vanished before we could read it.
            self.counters.recomputed.fetch_add(1, Ordering::Relaxed);
            return Ok(LoadOutcome::Missing);
        }
        self.counters.unrecoverable.fetch_add(1, Ordering::Relaxed);
        Ok(LoadOutcome::Unrecoverable { classes: skipped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::AtomicU64;
            static INVOCATION: AtomicU64 = AtomicU64::new(0);
            let n = INVOCATION.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "squatphi-durability-{tag}-{}-{n}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn decode_str(body: &str) -> Option<String> {
        Some(body.to_string())
    }

    #[test]
    fn save_load_round_trips_and_counts() {
        let tmp = TempDir::new("roundtrip");
        let store = DurableStore::open_real(&tmp.0, 0xabcd).unwrap();
        assert_eq!(
            store.load_with("state", decode_str).unwrap(),
            LoadOutcome::Missing
        );
        assert_eq!(store.save("state", "hello world").unwrap(), 1);
        assert_eq!(
            store.load_with("state", decode_str).unwrap(),
            LoadOutcome::Valid("hello world".to_string())
        );
        let stats = store.stats();
        assert_eq!(
            (stats.reads, stats.valid, stats.recomputed, stats.writes),
            (2, 1, 1, 1)
        );
        assert!(stats.reconciles());
    }

    #[test]
    fn keeps_exactly_two_generations() {
        let tmp = TempDir::new("generations");
        let store = DurableStore::open_real(&tmp.0, 1).unwrap();
        for i in 0..5 {
            assert_eq!(store.save("state", &format!("body {i}")).unwrap(), i + 1);
        }
        assert_eq!(store.generations("state").unwrap(), vec![4, 5]);
        assert_eq!(store.stats().retired, 3);
        assert_eq!(
            store.load_with("state", decode_str).unwrap(),
            LoadOutcome::Valid("body 4".to_string())
        );
    }

    #[test]
    fn corrupt_newest_recovers_to_previous_generation() {
        let tmp = TempDir::new("recover");
        let store = DurableStore::open_real(&tmp.0, 1).unwrap();
        store.save("state", "old good").unwrap();
        store.save("state", "new good").unwrap();
        // Flip one body bit of the newest generation.
        let path = tmp.0.join("state.g2.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        RealVfs.write(&path, &bytes).unwrap();
        match store.load_with("state", decode_str).unwrap() {
            LoadOutcome::Recovered {
                value,
                generation,
                skipped,
            } => {
                assert_eq!(value, "old good");
                assert_eq!(generation, 1);
                assert_eq!(skipped.len(), 1);
                assert_eq!(skipped[0].class, ReadClass::CorruptBody);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        assert_eq!(store.stats().recovered, 1);
    }

    #[test]
    fn truncation_classifies_as_torn() {
        let tmp = TempDir::new("torn");
        let store = DurableStore::open_real(&tmp.0, 1).unwrap();
        store.save("state", "first").unwrap();
        store
            .save("state", "a body long enough to truncate meaningfully")
            .unwrap();
        let path = tmp.0.join("state.g2.ckpt");
        let bytes = std::fs::read(&path).unwrap();
        RealVfs.write(&path, &bytes[..bytes.len() - 10]).unwrap();
        match store.load_with("state", decode_str).unwrap() {
            LoadOutcome::Recovered { skipped, .. } => {
                assert_eq!(skipped[0].class, ReadClass::Torn);
            }
            other => panic!("expected torn recovery, got {other:?}"),
        }
    }

    #[test]
    fn all_generations_damaged_is_unrecoverable() {
        let tmp = TempDir::new("unrecoverable");
        let store = DurableStore::open_real(&tmp.0, 1).unwrap();
        store.save("state", "one").unwrap();
        store.save("state", "two").unwrap();
        for g in [1, 2] {
            let path = tmp.0.join(format!("state.g{g}.ckpt"));
            RealVfs.write(&path, b"garbage, no newline").unwrap();
        }
        match store.load_with("state", decode_str).unwrap() {
            LoadOutcome::Unrecoverable { classes } => {
                assert_eq!(classes.len(), 2);
                assert!(classes.iter().all(|c| c.class == ReadClass::CorruptHeader));
                assert_eq!(
                    render_classes(&classes),
                    "g2 corrupt_header, g1 corrupt_header"
                );
            }
            other => panic!("expected unrecoverable, got {other:?}"),
        }
        assert!(store.stats().reconciles());
    }

    #[test]
    fn other_config_classifies_as_stale() {
        let tmp = TempDir::new("stale");
        let writer = DurableStore::open_real(&tmp.0, 1).unwrap();
        writer.save("state", "for config 1").unwrap();
        let reader = DurableStore::open_real(&tmp.0, 2).unwrap();
        match reader.load_with("state", decode_str).unwrap() {
            LoadOutcome::Stale { classes } => {
                assert_eq!(classes[0].class, ReadClass::StaleConfig);
            }
            other => panic!("expected stale, got {other:?}"),
        }
        // Same config still valid — the stale read classified, not mutated.
        assert!(matches!(
            writer.load_with("state", decode_str).unwrap(),
            LoadOutcome::Valid(_)
        ));
    }

    #[test]
    fn damaged_newest_over_stale_old_is_unrecoverable() {
        let tmp = TempDir::new("damaged-over-stale");
        let old = DurableStore::open_real(&tmp.0, 1).unwrap();
        old.save("state", "other config").unwrap();
        let store = DurableStore::open_real(&tmp.0, 2).unwrap();
        store.save("state", "current config").unwrap();
        let path = tmp.0.join("state.g2.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        RealVfs.write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_with("state", decode_str).unwrap(),
            LoadOutcome::Unrecoverable { .. }
        ));
    }

    #[test]
    fn decode_failure_falls_back_like_corruption() {
        let tmp = TempDir::new("decode");
        let store = DurableStore::open_real(&tmp.0, 1).unwrap();
        store.save("state", "42").unwrap();
        store.save("state", "not a number").unwrap();
        let decode = |body: &str| body.parse::<u64>().ok();
        match store.load_with("state", decode).unwrap() {
            LoadOutcome::Recovered { value, skipped, .. } => {
                assert_eq!(value, 42);
                assert_eq!(skipped[0].class, ReadClass::CorruptBody);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn bodies_with_newlines_and_unicode_round_trip() {
        let tmp = TempDir::new("body");
        let store = DurableStore::open_real(&tmp.0, 9).unwrap();
        let body = "line one\nline two\n  {\"k\": \"vàlüe\"}\n\n";
        store.save("state", body).unwrap();
        assert_eq!(
            store.load_with("state", decode_str).unwrap(),
            LoadOutcome::Valid(body.to_string())
        );
    }

    #[test]
    fn no_tmp_files_survive_a_clean_save() {
        let tmp = TempDir::new("tmpfiles");
        let store = DurableStore::open_real(&tmp.0, 1).unwrap();
        store.save("a", "x").unwrap();
        store.save("b", "y").unwrap();
        let leftovers: Vec<String> = RealVfs
            .list(&tmp.0)
            .unwrap()
            .into_iter()
            .filter(|f| f.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
    }
}
