//! `watch_durable`: the `watch_stream` loop with the write path
//! (`core::checkpoint` encode + `durability` tmp/fsync/rename, two
//! generations) and the read path (resume) switched on.
//!
//! A pass runs the stream into a fresh checkpoint directory, stops it
//! half way, and resumes it to completion. A checkpoint change shows here
//! and must leave `watch_stream` flat. The fsync cost is the sandbox
//! file system's, not a device's.

use super::watch_stream::{check_finished, event_digest, same_outcome, watch_config};
use super::{scratch_dir, Checks, Metrics, Scale, Workload};
use crate::spec::THREADS;
use crate::stats::median;
use crate::sys;
use crate::tracer::Tracer;
use squatphi::{SquatPhi, WatchConfig, WatchError, WatchOptions, WatchSummary};
use squatphi_telemetry::invariants::durability_invariants;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// 10k events, as `watch_stream` and for its reason: short passes. The
/// state file grows with the run, so checkpointing cost grows faster than
/// the event count; at 10k a pass makes 158 durable writes.
const EVENTS: u64 = 10_000;

/// The workload's input: a watch configuration.
pub struct WatchDurable {
    config: WatchConfig,
    digest: u64,
    /// The uninterrupted, checkpoint-free run, made once when the first
    /// pass is inspected (see `WatchStream`).
    reference: OnceLock<WatchSummary>,
}

/// What a pass returns.
pub struct Raw {
    dir: PathBuf,
    interrupted: Result<WatchSummary, WatchError>,
    resumed: Option<Result<WatchSummary, WatchError>>,
    interrupted_s: f64,
    resumed_s: f64,
    bytes_written: u64,
}

/// What is kept of a pass.
pub struct Pass {
    interrupted_s: f64,
    resumed_s: f64,
    writes: u64,
    reads: u64,
    recovered: u64,
    bytes_written: u64,
    final_state_bytes: u64,
    /// Resumed `state_fingerprint` differs from the reference's (see
    /// `watch_stream::same_outcome`).
    ledger_diverged: bool,
}

/// A directory no other pass, test or process uses.
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    scratch_dir().join(format!(
        "ckpt_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Bytes of the regular files directly in `dir`.
fn dir_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for WatchDurable {
    const NAME: &'static str = "watch_durable";
    type Raw = Raw;
    type Pass = Option<Pass>;

    fn setup(seed: u64, scale: Scale) -> Self {
        let config = watch_config(seed, scale.pick(EVENTS, 1_500), THREADS);
        WatchDurable {
            digest: event_digest(&config),
            reference: OnceLock::new(),
            config,
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("events", self.config.events()),
            ("stop_after", self.config.events() / 2),
            ("checkpoint_every", self.config.checkpoint_every()),
            ("brands", self.config.brands() as u64),
        ]
    }

    fn pass(&self, tr: &mut Tracer) -> Raw {
        let dir = fresh_dir();
        let written0 = sys::bytes_written().unwrap_or(0);
        let (interrupted, interrupted_s) = tr.timed("watch.interrupted", || {
            SquatPhi::try_watch(
                &self.config,
                &WatchOptions {
                    checkpoint_dir: Some(dir.clone()),
                    stop_after: Some(self.config.events() / 2),
                    ..WatchOptions::default()
                },
            )
        });
        let (resumed, resumed_s) = if interrupted.is_ok() {
            let (r, s) = tr.timed("watch.resumed", || {
                SquatPhi::try_watch(
                    &self.config,
                    &WatchOptions {
                        checkpoint_dir: Some(dir.clone()),
                        resume: true,
                        ..WatchOptions::default()
                    },
                )
            });
            (Some(r), s)
        } else {
            (None, 0.0)
        };
        Raw {
            bytes_written: sys::bytes_written().unwrap_or(0) - written0,
            dir,
            interrupted,
            resumed,
            interrupted_s,
            resumed_s,
        }
    }

    fn inspect(&self, raw: Raw, checks: &mut Checks) -> Self::Pass {
        let final_state_bytes = dir_bytes(&raw.dir);
        let _ = std::fs::remove_dir_all(&raw.dir);
        let first = match raw.interrupted {
            Ok(s) => s,
            Err(e) => {
                checks.require(false, &format!("interrupted try_watch failed: {e}"));
                return None;
            }
        };
        checks.require(
            first.interrupted && !first.resumed,
            "the first half did not stop at stop_after",
        );
        let second = check_finished(raw.resumed?, self.config.events(), checks)?;
        checks.require(second.resumed, "the second half did not resume");
        let reference = self.reference.get_or_init(|| {
            SquatPhi::try_watch(&self.config, &WatchOptions::default())
                .expect("the uninterrupted reference run")
        });
        checks.require(
            same_outcome(&second, reference),
            "resumed outcome differs from the uninterrupted reference",
        );
        for (half, summary) in [("interrupted", &first), ("resumed", &second)] {
            let ledger = durability_invariants().check_all(&summary.telemetry().snapshot());
            checks.require(
                ledger.is_ok(),
                &format!("durability_invariants ({half}): {ledger:?}"),
            );
        }
        Some(Pass {
            interrupted_s: raw.interrupted_s,
            resumed_s: raw.resumed_s,
            writes: first.durability.writes + second.durability.writes,
            reads: first.durability.reads + second.durability.reads,
            recovered: first.durability.recovered + second.durability.recovered,
            bytes_written: raw.bytes_written,
            final_state_bytes,
            ledger_diverged: second.state_fingerprint != reference.state_fingerprint,
        })
    }

    fn items(&self, _: &Self::Pass) -> u64 {
        self.config.events()
    }

    fn finish(&self, passes: &[Self::Pass], _: &mut Checks, detail: &mut Metrics) {
        let done: Vec<&Pass> = passes.iter().flatten().collect();
        let Some(first) = done.first() else {
            return;
        };
        detail.set("durable_writes", first.writes as f64, "count");
        detail.set("final_state_bytes", first.final_state_bytes as f64, "bytes");
        detail.set(
            "ledger_divergences",
            done.iter().filter(|p| p.ledger_diverged).count() as f64,
            "count",
        );
        detail.set(
            "resume_s",
            median(&done.iter().map(|p| p.resumed_s).collect::<Vec<_>>()),
            "s",
        );
    }

    fn layers(&self, tr: &mut Tracer, traced: &Self::Pass, _: &mut Checks, layers: &mut Metrics) {
        let Some(p) = traced else {
            return;
        };
        let events = self.config.events() as f64;
        layers.set("checkpoint.writes", p.writes as f64, "count");
        layers.set("checkpoint.bytes_written", p.bytes_written as f64, "bytes");
        layers.set(
            "checkpoint.final_state_bytes",
            p.final_state_bytes as f64,
            "bytes",
        );
        layers.set(
            "checkpoint.bytes_per_event",
            p.bytes_written as f64 / events,
            "bytes",
        );
        layers.set("checkpoint.interrupted_s", p.interrupted_s, "s");
        layers.set("checkpoint.resume_s", p.resumed_s, "s");
        layers.set("durability.reads", p.reads as f64, "count");
        layers.set("durability.recovered", p.recovered as f64, "count");
        // The same events with checkpoints off, measured now and not in
        // set-up so both sides see the same machine.
        let (_, off_s) = tr.timed("core.try_watch_no_checkpoint", || {
            SquatPhi::try_watch(&self.config, &WatchOptions::default())
        });
        layers.set(
            "checkpoint.overhead_share",
            1.0 - off_s / (p.interrupted_s + p.resumed_s),
            "ratio",
        );
        tr.count("checkpoint.bytes_written", p.bytes_written as f64);
    }
}
