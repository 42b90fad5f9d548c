//! Checksummed, generational durable-state layer for the SquatPhi
//! workspace, plus the fault machinery that proves it.
//!
//! The paper's watch daemon runs for weeks; a crash that corrupts the
//! watermark checkpoint silently re-opens exactly the blacklist-lag
//! detection gap the system exists to close. This crate is the one
//! place persisted state touches a disk:
//!
//! * [`DurableStore`] — named states as monotonically numbered
//!   generations (`<name>.g<N>.ckpt`, latest two kept), each a
//!   `StateFile` with a hand-rolled CRC32C over a protected
//!   version/config/generation header and the body. Writes are
//!   tmp + fsync + rename + dir-fsync; reads walk generations
//!   newest-first, classify every file ([`ReadClass`]) and fall back to
//!   the last good generation, resolving to a [`LoadOutcome`] the
//!   [`DurabilityCounters`] ledger accounts for exactly.
//! * [`Journal`] — a state that changes a little between checkpoints is
//!   a base `StateFile` plus appended, CRC-framed deltas (one write and
//!   one fsync each), folded into a fresh base when the frames outweigh
//!   it; a load replays the verified frame prefix and stops at the first
//!   torn or corrupt frame.
//! * [`Vfs`] — the filesystem seam: [`RealVfs`] in production,
//!   [`FaultVfs`] under a seeded [`DiskFaultPlan`]
//!   (`torn-at-byte-N / bitflip-permille-N / enospc-after-N /
//!   crash-at-write-K`) in tests and the chaos CLI flags. Crash aborts
//!   exit with [`CRASH_EXIT_CODE`]; `ci/crash_matrix.sh` sweeps the
//!   write index `K` and asserts resume is byte-identical.
//! * [`grammar`] — the clause parser shared with the pipeline fault
//!   plans in `squatphi::fault`, so the two fault grammars cannot
//!   drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc32c;
pub mod grammar;
pub mod journal;
pub mod plan;
pub mod store;
pub mod vfs;

pub use crc32c::crc32c;
pub use journal::{encode_frame, read_frames, Journal, JournalEnd, FRAME_HEADER_BYTES};
pub use plan::{CrashPoint, DiskFaultPlan};
pub use store::{
    render_classes, DurabilityCounters, DurabilityStats, DurableStore, GenClass, LoadOutcome,
    ReadClass, StoreError, STATE_VERSION,
};
pub use vfs::{install_crash_hook, FaultVfs, RealVfs, Vfs, CRASH_EXIT_CODE};
