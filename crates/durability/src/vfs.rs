//! The filesystem seam the durable store writes through.
//!
//! [`DurableStore`](crate::store::DurableStore) never touches `std::fs`
//! directly; it goes through a [`Vfs`]. Production uses [`RealVfs`],
//! whose `write` fsyncs the file and whose `rename` fsyncs the parent
//! directory — the two syncs the old `write_atomic` helper skipped, and
//! without which a rename is not crash-safe on real filesystems. Tests
//! and the chaos CLI flags wrap it in [`FaultVfs`], which applies a
//! seeded [`DiskFaultPlan`] to every durable write and append: torn
//! tails, bit rot, a full device, or a process abort at the `K`-th one.
//!
//! The crash abort is observable two ways: by default the process exits
//! with [`CRASH_EXIT_CODE`] (what `ci/crash_matrix.sh` sweeps for);
//! in-process tests install a panicking hook via [`install_crash_hook`]
//! and catch the unwind instead.

use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::plan::{CrashPoint, DiskFaultPlan};

/// Process exit code of a simulated `crash-at-write-K` abort.
pub const CRASH_EXIT_CODE: i32 = 86;

/// Minimal filesystem surface needed by the durable store.
pub trait Vfs: Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Reads a whole file (`NotFound` if absent).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the file names directly under `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Durably writes `bytes` at `path` (create-or-truncate, then fsync).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Durably appends `bytes` to the existing file at `path` (append,
    /// then fsync; `NotFound` if absent — a journal only ever grows a
    /// generation that a [`Vfs::rename`] committed).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to`, then fsyncs the parent
    /// directory so the rename itself survives a crash.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The production filesystem: `std::fs` plus the missing fsyncs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.write_all(bytes)?;
        // The new length is metadata the data cannot be read back
        // without, so `fdatasync` flushes it too; nothing else changed.
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        // Persist the directory entry: without this the rename can vanish
        // on power loss even though both files were synced. Opening a
        // directory read-only works on POSIX; where it does not, skip the
        // sync rather than fail the rename.
        if let Some(parent) = to.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                dir.sync_all()?;
            }
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// A process-global replacement for the simulated-crash `exit(86)`.
pub type CrashHook = Box<dyn Fn(&str) + Send + Sync>;

static CRASH_HOOK: OnceLock<CrashHook> = OnceLock::new();

/// Installs a process-global hook run instead of `exit(86)` when a
/// `crash-at-write-K` plan fires. In-process tests install a hook that
/// panics (with a payload they recognize) and catch the unwind; the
/// first installation wins and later calls are ignored.
pub fn install_crash_hook(hook: CrashHook) {
    let _ = CRASH_HOOK.set(hook);
}

fn simulated_crash(context: &str) -> ! {
    if let Some(hook) = CRASH_HOOK.get() {
        hook(context);
    }
    eprintln!("[durability] simulated crash: {context}");
    std::process::exit(CRASH_EXIT_CODE);
}

/// A [`Vfs`] decorator that applies a [`DiskFaultPlan`] to every durable
/// write and append, counted in one sequence. Reads, listings and
/// removals pass through untouched — read-side corruption is modelled by
/// mutating files directly (the conformance oracle's job), not by lying
/// on the read path.
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    plan: DiskFaultPlan,
    /// Durable-operation sequence number (writes and appends), 1-based,
    /// per store instance.
    writes: AtomicU64,
    /// Total bytes accepted, for the `enospc-after-N` budget.
    accepted: AtomicU64,
    /// Set when the current write's crash point is [`CrashPoint::AfterCommit`]:
    /// the following commit rename completes, then the process dies.
    crash_after_rename: AtomicBool,
}

/// The two durable operations a plan applies to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DurableOp {
    Write,
    Append,
}

impl DurableOp {
    fn name(self) -> &'static str {
        match self {
            DurableOp::Write => "write",
            DurableOp::Append => "append",
        }
    }
}

impl FaultVfs {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: DiskFaultPlan) -> FaultVfs {
        FaultVfs {
            inner,
            plan,
            writes: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            crash_after_rename: AtomicBool::new(false),
        }
    }

    fn file_name(path: &Path) -> String {
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string()
    }

    fn land(&self, op: DurableOp, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match op {
            DurableOp::Write => self.inner.write(path, bytes),
            DurableOp::Append => self.inner.append(path, bytes),
        }
    }

    /// One durable operation under the plan. A write and an append differ
    /// only in how bytes land and in what "after" means at the crash
    /// point: a write is committed by the rename that follows it, an
    /// append by its own fsync.
    fn durable(&self, op: DurableOp, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        let name = Self::file_name(path);
        let what = op.name();

        match self.plan.crash_point(seq) {
            Some(CrashPoint::BeforeWrite) => {
                simulated_crash(&format!("{what} {seq} ({name}): before-{what}"));
            }
            Some(CrashPoint::MidWrite) => {
                let torn = self.plan.crash_torn_prefix(seq, bytes.len());
                let _ = self.land(op, path, &bytes[..torn]);
                simulated_crash(&format!(
                    "{what} {seq} ({name}): mid-{what} after {torn} bytes"
                ));
            }
            Some(CrashPoint::AfterCommit) if op == DurableOp::Append => {
                self.inner.append(path, bytes)?;
                simulated_crash(&format!("append {seq} ({name}): after-append"));
            }
            Some(CrashPoint::AfterCommit) => {
                self.crash_after_rename.store(true, Ordering::SeqCst);
            }
            None => {}
        }

        let mut image = bytes.to_vec();
        if let Some(n) = self.plan.torn_at_byte {
            image.truncate(n as usize);
        }
        if let Some(bit) = self.plan.bitflip_for(&name, seq, image.len()) {
            image[bit / 8] ^= 1 << (bit % 8);
        }

        if let Some(budget) = self.plan.enospc_after {
            let before = self
                .accepted
                .fetch_add(image.len() as u64, Ordering::SeqCst);
            let allowed = budget.saturating_sub(before) as usize;
            if allowed < image.len() {
                // A real full disk persists the prefix that fit before
                // failing; model that so readers face a torn file too.
                let _ = self.land(op, path, &image[..allowed]);
                return Err(io::Error::other(format!(
                    "synthetic ENOSPC: {what} {seq} ({name}) of {} bytes exceeds the \
                     {budget}-byte device budget",
                    image.len()
                )));
            }
        }

        self.land(op, path, &image)
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.durable(DurableOp::Write, path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.durable(DurableOp::Append, path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.crash_after_rename.swap(false, Ordering::SeqCst) {
            self.inner.rename(from, to)?;
            simulated_crash(&format!(
                "commit of {}: after-commit, before retire",
                Self::file_name(to)
            ));
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}
