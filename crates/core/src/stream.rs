//! The streaming watch daemon behind `squatphi watch` (ROADMAP: batch →
//! long-running service).
//!
//! Where [`SquatPhi::try_run`] scans a frozen snapshot, [`SquatPhi::
//! try_watch`] consumes the seeded registration feed from
//! [`squatphi_dnsdb::events`] continuously:
//!
//! ```text
//!   EventStream ──ingest──▶ [ingest queue] ──detect──▶ [candidate queue]
//!        │  (bounded: drops)       (SquatDetector)        (bounded: stalls)
//!        ▼                                                      │
//!   VirtualClock ──── cadence ticks ────────────────────────────▼
//!                                                        crawl sweep
//!                                              (WebWorld + transport stack,
//!                                               re-crawl scheduler, blacklist
//!                                               lag, takedown tracking)
//! ```
//!
//! Backpressure is explicit and *accounted*: every event the generator
//! emits is either accepted into the bounded ingest queue or counted as
//! a drop; every detected candidate either fits the bounded candidate
//! queue or stalls the detect stage (and is retried next tick). The
//! conservation identities live in [`WatchCounters::reconciles`] and are
//! asserted by CI.
//!
//! Determinism contract: the whole run is a pure function of
//! `(WatchConfig, stop point)` — same seed and same `stop_after` produce
//! a byte-identical [`WatchSummary::to_json`], at any `threads` setting
//! (the loop is single-threaded). The watermark checkpoint
//! (generational `watch.g<N>.ckpt` files, each a base snapshot followed
//! by an append-only journal of CRC-framed deltas, persisted through
//! [`squatphi_durability::Journal`] and read back with the
//! [`crate::checkpoint`] JSON parser) round-trips the full daemon state,
//! so killing the daemon at a checkpoint and resuming reproduces the
//! uninterrupted run's [`WatchSummary::state_fingerprint`] exactly.
//! Because the run is a pure function of its inputs, resuming from *any*
//! verified point — an older generation recovered after the newest was
//! damaged, or the frames before a torn or corrupt one — still converges
//! on the identical final summary.
//!
//! The module is cut where the journal cuts it: `config` (parameters and
//! the config hash), `counters` (what a run counts and reports), `runner`
//! (state, tick loop, and the record of what each tick changed), `codec`
//! (the checkpoint document and the store).
//!
//! [`SquatPhi::try_run`]: crate::pipeline::SquatPhi::try_run
//! [`SquatPhi:: try_watch`]: crate::pipeline::SquatPhi

mod codec;
mod config;
mod counters;
mod runner;

pub use config::{WatchConfig, WatchConfigBuilder, WatchConfigError, WatchError, WatchOptions};
pub use counters::{WatchCounters, WatchMetrics, WatchSummary};

#[cfg(test)]
mod tests {
    use super::codec::WatchStore;
    use super::runner::Runner;
    use super::*;
    use crate::checkpoint::{CheckpointError, Loaded};
    use crate::SquatPhi;
    use squatphi_durability::DiskFaultPlan;
    use std::path::Path;

    fn tiny() -> WatchConfig {
        WatchConfig::builder()
            .brands(12)
            .seed(41)
            .events(240)
            .ingest_capacity(24)
            .candidate_capacity(8)
            .detect_batch(6)
            .crawl_cadence(3)
            .crawl_batch(6)
            .threads(2)
            .checkpoint_every(32)
            .build()
            .expect("tiny watch config")
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            WatchConfig::builder().ingest_capacity(0).build(),
            Err(WatchConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            WatchConfig::builder().candidate_capacity(0).build(),
            Err(WatchConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            WatchConfig::builder().crawl_cadence(0).build(),
            Err(WatchConfigError::ZeroCadence)
        );
        assert_eq!(
            WatchConfig::builder().detect_batch(0).build(),
            Err(WatchConfigError::ZeroBatch)
        );
        assert_eq!(
            WatchConfig::builder().threads(0).build(),
            Err(WatchConfigError::ZeroWorkers)
        );
        assert_eq!(
            WatchConfig::builder().brands(0).build(),
            Err(WatchConfigError::ZeroBrands)
        );
        assert_eq!(
            WatchConfig::builder().checkpoint_every(0).build(),
            Err(WatchConfigError::ZeroCheckpointCadence)
        );
        for e in [
            WatchConfigError::ZeroQueueCapacity,
            WatchConfigError::ZeroCadence,
            WatchConfigError::ZeroBatch,
            WatchConfigError::ZeroWorkers,
            WatchConfigError::ZeroBrands,
            WatchConfigError::ZeroCheckpointCadence,
        ] {
            assert!(e.to_string().starts_with("watch config:"));
        }
    }

    #[test]
    fn default_config_builds_and_derives_stream_seed() {
        let cfg = WatchConfig::default();
        assert_eq!(cfg.stream().seed, cfg.seed());
        assert!(cfg.ingest_capacity() > 0);
    }

    #[test]
    fn resume_without_dir_is_an_options_error() {
        let opts = WatchOptions {
            resume: true,
            ..WatchOptions::default()
        };
        match SquatPhi::try_watch(&tiny(), &opts) {
            Err(WatchError::Options(msg)) => assert!(msg.contains("checkpoint")),
            other => panic!("expected options error, got {other:?}"),
        }
    }

    #[test]
    fn watch_runs_and_reconciles() {
        let summary = SquatPhi::try_watch(&tiny(), &WatchOptions::default())
            .expect("tiny watch run succeeds");
        assert!(!summary.interrupted);
        assert_eq!(summary.watermark, 240);
        assert!(summary.reconciles(), "{:?}", summary.counters);
        assert!(summary.counters.detected > 0, "no squats detected");
        assert!(summary.counters.live_found > 0, "no live candidates");
        assert!(!summary.metrics.is_empty());
        assert!(summary.report_line().contains("reconciled"));
        // Queues fully drained at shutdown.
        assert_eq!(summary.ingest_depth, 0);
        assert_eq!(summary.candidate_depth, 0);
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let a = SquatPhi::try_watch(&tiny(), &WatchOptions::default()).expect("run a");
        let b = SquatPhi::try_watch(&tiny(), &WatchOptions::default()).expect("run b");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.state_fingerprint, b.state_fingerprint);
    }

    #[test]
    fn stop_after_interrupts_deterministically() {
        let opts = WatchOptions {
            stop_after: Some(100),
            ..WatchOptions::default()
        };
        let a = SquatPhi::try_watch(&tiny(), &opts).expect("interrupted run");
        assert!(a.interrupted);
        assert!(a.watermark >= 100);
        assert!(a.watermark < 240);
        let b = SquatPhi::try_watch(&tiny(), &opts).expect("interrupted run b");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn checkpoint_roundtrips_state() {
        let dir = std::env::temp_dir().join(format!("squatphi-watch-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let mut store =
            WatchStore::open(&dir, &config, &DiskFaultPlan::none()).expect("open store");
        // Build a non-trivial state by running half the stream.
        let opts = WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(120),
            ..WatchOptions::default()
        };
        let partial = SquatPhi::try_watch(&config, &opts).expect("partial run");
        let Loaded::Value(loaded) = store.load().expect("load") else {
            panic!("expected a valid checkpoint");
        };
        assert_eq!(loaded.fingerprint(), partial.state_fingerprint);
        assert!(partial.durability.reconciles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_is_ignored() {
        let dir = std::env::temp_dir().join(format!("squatphi-watch-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let opts = WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(60),
            ..WatchOptions::default()
        };
        SquatPhi::try_watch(&config, &opts).expect("seed the checkpoint");
        // A different config must not resume from it.
        let other = WatchConfig::builder()
            .brands(12)
            .seed(42)
            .events(240)
            .build()
            .expect("other config");
        let mut store = WatchStore::open(&dir, &other, &DiskFaultPlan::none()).expect("open store");
        assert!(matches!(store.load().expect("load"), Loaded::Stale));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Overwrites one on-disk generation with damage, through the same
    /// durable-write path production uses.
    fn corrupt_generation(dir: &Path, name: &str) {
        use squatphi_durability::{RealVfs, Vfs};
        RealVfs
            .write(&dir.join(name), b"{not json")
            .expect("corrupt");
    }

    /// Newest generation on disk for the watch checkpoint.
    fn newest_generation(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .expect("read_dir")
            .filter_map(|e| {
                let name = e.ok()?.file_name().to_string_lossy().into_owned();
                let gen = name.strip_prefix("watch.g")?.strip_suffix(".ckpt")?;
                gen.parse::<u64>().ok()
            })
            .max()
            .expect("at least one generation")
    }

    #[test]
    fn damaged_newest_generation_resumes_from_the_previous_and_converges() {
        let dir =
            std::env::temp_dir().join(format!("squatphi-watch-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let baseline =
            SquatPhi::try_watch(&config, &WatchOptions::default()).expect("uninterrupted run");
        let opts = WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(120),
            ..WatchOptions::default()
        };
        SquatPhi::try_watch(&config, &opts).expect("partial run");
        let newest = newest_generation(&dir);
        assert!(newest >= 2, "cadence 32 over 120 events makes >= 2 gens");
        corrupt_generation(&dir, &format!("watch.g{newest}.ckpt"));
        // Resume to completion: recovery restarts from the older
        // generation and — the run being a pure function of its inputs —
        // still converges on the byte-identical uninterrupted summary.
        let resumed = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..WatchOptions::default()
            },
        )
        .expect("resumed run");
        assert!(resumed.resumed);
        let detail = resumed.recovered_checkpoint.as_deref().unwrap_or_default();
        assert!(detail.contains(&format!("g{newest}")), "detail: {detail}");
        assert_eq!(resumed.to_json(), baseline.to_json());
        assert_eq!(resumed.state_fingerprint, baseline.state_fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_damaged_checkpoint_is_a_structured_error() {
        let dir =
            std::env::temp_dir().join(format!("squatphi-watch-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let mut store =
            WatchStore::open(&dir, &config, &DiskFaultPlan::none()).expect("open store");
        corrupt_generation(&dir, "watch.g1.ckpt");
        match store.load() {
            Err(CheckpointError::Unrecoverable { name, detail, .. }) => {
                assert_eq!(name, "watch");
                assert!(detail.contains("g1"), "detail: {detail}");
            }
            other => panic!("expected unrecoverable, got ok={}", other.is_ok()),
        }
        // And the service surface: --resume against it is a structured
        // WatchError, never a silent full recompute.
        let err = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..WatchOptions::default()
            },
        )
        .expect_err("resume over unrecoverable state must fail");
        assert!(matches!(
            err,
            WatchError::Checkpoint(CheckpointError::Unrecoverable { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("squatphi-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_store(dir: &Path, config: &WatchConfig) -> WatchStore {
        WatchStore::open(dir, config, &DiskFaultPlan::none()).expect("open store")
    }

    /// Runs `config` to completion under `store`, checkpointing on the
    /// production rule, and calls `at_checkpoint` after each one.
    fn run_checkpointed(
        config: &WatchConfig,
        store: WatchStore,
        mut at_checkpoint: impl FnMut(&Runner),
    ) -> u64 {
        let mut runner = Runner::new(config, Some(store));
        while !runner.finished() {
            runner.step();
            if runner.checkpoint_due() {
                runner.checkpoint().expect("checkpoint");
                at_checkpoint(&runner);
            }
        }
        runner.checkpoint().expect("final checkpoint");
        at_checkpoint(&runner);
        runner.state.fingerprint()
    }

    /// The metamorphic gate for delta recording: whatever the checkpoint
    /// cadence — every 64 events, every event, never — the run ends in the
    /// same state, and at *every* checkpoint the base plus the journal
    /// decode to exactly the live state. A mutation site that forgot to
    /// say what it touched fails the second half at its first checkpoint.
    #[test]
    fn base_plus_journal_equals_the_live_state_at_every_checkpoint() {
        // Long and tight enough that every mutation site of the tracked
        // map and the scheduler runs between checkpoints.
        let busy = |checkpoint_every| {
            WatchConfig::builder()
                .brands(12)
                .seed(7)
                .events(800)
                .ingest_capacity(24)
                .candidate_capacity(8)
                .detect_batch(6)
                .crawl_cadence(3)
                .crawl_batch(6)
                .checkpoint_every(checkpoint_every)
                .build()
                .expect("config")
        };
        let never = SquatPhi::try_watch(&busy(64), &WatchOptions::default()).expect("no store");
        let c = &never.counters;
        for (site, hits) in [
            ("first live crawl", c.live_found),
            ("re-crawl", c.recrawls),
            ("takedown", c.takedowns),
            ("deregistration of a tracked domain", c.churn_takedowns),
            ("blacklist aging", c.blacklisted),
            ("candidate purge", c.purged_candidates),
            ("detect stall", c.detect_stalls),
        ] {
            assert!(hits > 0, "the run never exercises: {site}");
        }
        for every in [64, 1] {
            let config = busy(every);
            let dir = temp_dir(&format!("metamorphic-{every}"));
            let mut checkpoints = 0;
            let fingerprint = run_checkpointed(&config, open_store(&dir, &config), |runner| {
                checkpoints += 1;
                match open_store(&dir, &config).load().expect("load") {
                    Loaded::Value(decoded) => assert_eq!(
                        decoded, runner.state,
                        "every {every}: checkpoint {checkpoints} decodes to another state"
                    ),
                    _ => panic!("every {every}: checkpoint {checkpoints} did not load"),
                }
            });
            assert_eq!(fingerprint, never.state_fingerprint, "every {every}");
            assert!(
                checkpoints >= 12,
                "every {every}: {checkpoints} checkpoints"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn the_journal_is_appended_to_and_compacted() {
        let dir = temp_dir("journal-shape");
        let config = tiny();
        let summary = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                ..WatchOptions::default()
            },
        )
        .expect("checkpointed run");
        let d = summary.durability;
        assert!(d.appends >= 1, "no delta was appended: {d:?}");
        assert!(
            d.compactions >= 1,
            "the journal never outweighed its base: {d:?}"
        );
        assert_eq!(
            d.writes,
            d.compactions + 1,
            "one first base, then compactions"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_checkpoint_of_the_same_tick_writes_nothing() {
        let dir = temp_dir("same-tick");
        let config = tiny();
        let mut runner = Runner::new(&config, Some(open_store(&dir, &config)));
        for _ in 0..5 {
            runner.step();
        }
        let ops = |r: &Runner| {
            let d = r.store.as_ref().expect("store").stats();
            d.writes + d.appends
        };
        runner.checkpoint().expect("first");
        assert_eq!(ops(&runner), 1);
        runner.checkpoint().expect("same tick again");
        assert_eq!(ops(&runner), 1, "an empty delta was written");
        runner.step();
        runner.checkpoint().expect("next tick");
        assert_eq!(ops(&runner), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bytes of the newest generation file and where its journal starts.
    fn newest_file(dir: &Path) -> (std::path::PathBuf, Vec<u8>, usize) {
        let path = dir.join(format!("watch.g{}.ckpt", newest_generation(dir)));
        let bytes = std::fs::read(&path).expect("read generation");
        let nl = bytes.iter().position(|&b| b == b'\n').expect("header line");
        let header = std::str::from_utf8(&bytes[..nl]).expect("header");
        let len: usize = header
            .rsplit_once("len=")
            .expect("len field")
            .1
            .parse()
            .expect("len");
        let journal_at = nl + 1 + len;
        (path, bytes, journal_at)
    }

    /// A checkpoint directory whose newest generation carries at least two
    /// journal frames, and the uninterrupted baseline to converge on.
    fn journaled_dir(tag: &str) -> (std::path::PathBuf, WatchConfig, WatchSummary) {
        let config = tiny();
        let baseline =
            SquatPhi::try_watch(&config, &WatchOptions::default()).expect("uninterrupted run");
        for stop in (40..240).step_by(8) {
            let dir = temp_dir(tag);
            SquatPhi::try_watch(
                &config,
                &WatchOptions {
                    checkpoint_dir: Some(dir.clone()),
                    stop_after: Some(stop),
                    ..WatchOptions::default()
                },
            )
            .expect("partial run");
            let (_, bytes, journal_at) = newest_file(&dir);
            let (frames, _) = squatphi_durability::read_frames(&bytes[journal_at..]);
            if frames.len() >= 2 {
                return (dir, config, baseline);
            }
        }
        panic!("no stop point leaves two frames in the newest generation");
    }

    fn resume(dir: &Path, config: &WatchConfig) -> WatchSummary {
        SquatPhi::try_watch(
            config,
            &WatchOptions {
                checkpoint_dir: Some(dir.to_path_buf()),
                resume: true,
                ..WatchOptions::default()
            },
        )
        .expect("resumed run")
    }

    #[test]
    fn a_torn_journal_tail_is_a_normal_end_and_the_resume_converges() {
        use squatphi_durability::{RealVfs, Vfs};
        let (dir, config, baseline) = journaled_dir("torn-tail");
        let (path, bytes, _) = newest_file(&dir);
        RealVfs
            .write(&path, &bytes[..bytes.len() - 7])
            .expect("tear the last frame");
        let resumed = resume(&dir, &config);
        assert!(resumed.resumed);
        assert_eq!(
            resumed.recovered_checkpoint, None,
            "a torn tail is not damage"
        );
        let d = resumed.durability;
        assert_eq!(
            (d.valid, d.recovered, d.frames_discarded),
            (1, 0, 1),
            "{d:?}"
        );
        assert!(d.frames_applied >= 1 && d.reconciles(), "{d:?}");
        assert!(
            d.compactions >= 1,
            "a resume never appends to what it loaded"
        );
        assert_eq!(resumed.to_json(), baseline.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_journal_damage_recovers_the_frames_before_it_and_names_the_frame() {
        use squatphi_durability::{RealVfs, Vfs};
        let (dir, config, baseline) = journaled_dir("mid-journal");
        let (path, mut bytes, journal_at) = newest_file(&dir);
        // One flipped payload bit in the first frame: everything after it
        // is discarded too, and the base alone is what the resume stands on.
        bytes[journal_at + squatphi_durability::FRAME_HEADER_BYTES + 3] ^= 0x04;
        RealVfs.write(&path, &bytes).expect("flip a journal bit");
        let damaged = format!("g{} frame 1 corrupt_body", newest_generation(&dir));
        let resumed = resume(&dir, &config);
        assert_eq!(resumed.recovered_checkpoint, Some(damaged));
        let d = resumed.durability;
        assert_eq!((d.valid, d.recovered, d.frames_applied), (0, 1, 0), "{d:?}");
        assert!(d.reconciles(), "{d:?}");
        assert_eq!(resumed.to_json(), baseline.to_json());
        assert_eq!(resumed.state_fingerprint, baseline.state_fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_old_format_checkpoint_is_stale_and_recomputed() {
        use squatphi_durability::DurableStore;
        let dir = temp_dir("old-format");
        let config = tiny();
        // What the full-rewrite codec's store was bound to: the same
        // canonical config under `wv1`. Any hash but today's stands in.
        let old = DurableStore::open_real(&dir, !super::config::watch_config_hash(&config))
            .expect("old store");
        old.save("watch", "{\"version\": 1}")
            .expect("old generation");
        assert!(matches!(
            open_store(&dir, &config).load().expect("load"),
            Loaded::Stale
        ));
        let baseline = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("baseline");
        let resumed = resume(&dir, &config);
        assert!(
            !resumed.resumed,
            "a stale checkpoint must not be resumed from"
        );
        assert_eq!(resumed.durability.recomputed, 1);
        assert_eq!(resumed.to_json(), baseline.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
