//! The delta journal: frame codec properties, exhaustive damage over a
//! base + journal generation, the [`Journal`] compaction policy, and
//! appends under the seeded fault plan.
//!
//! The recovery contract under test: a load replays *exactly* the frames
//! before the first damaged one — never a later frame, never an altered
//! one — a torn tail is a normal end of journal, mid-journal damage is a
//! recovery with the frame named, and damage inside the base falls back
//! a generation (that generation's base and its whole journal).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use squatphi_durability::{
    encode_frame, install_crash_hook, read_frames, CrashPoint, DiskFaultPlan, DurableStore,
    FaultVfs, Journal, JournalEnd, LoadOutcome, RealVfs, FRAME_HEADER_BYTES,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static INVOCATION: AtomicU64 = AtomicU64::new(0);
        let n = INVOCATION.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "squatphi-durability-journal-{tag}-{}-{n}",
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

const CONFIG: u64 = 0x5eed_c0de;

/// A journaled value is its base followed by the frames applied to it.
fn decode(base: &str) -> Option<Vec<String>> {
    Some(vec![base.to_string()])
}

fn apply(value: &mut Vec<String>, delta: &str) -> bool {
    value.push(delta.to_string());
    true
}

fn load(
    dir: &Path,
) -> (
    LoadOutcome<Vec<String>>,
    squatphi_durability::DurabilityStats,
) {
    let store = DurableStore::open_real(dir, CONFIG).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        store.load_journal("state", decode, apply)
    }))
    .expect("the journal reader panicked")
    .expect("store error instead of a classification");
    (outcome, store.stats())
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

const OLD_FRAMES: [&str; 2] = ["old delta one", "old delta two, a little longer"];
const NEW_FRAMES: [&str; 4] = [
    "{\"tick\": 5}",
    "{\"tick\": 9, \"domains\": [\"a.example\"]}",
    "x",
    "{\"tick\": 14, \"metrics\": [[1, 2, 3]]}",
];

/// g1 = base `old` + two frames, g2 = base `new` + four frames. Returns
/// g2's path, its pristine bytes, and where its journal starts.
fn two_journaled_generations(dir: &Path) -> (PathBuf, Vec<u8>, usize) {
    let store = DurableStore::open_real(dir, CONFIG).unwrap();
    assert_eq!(store.save("state", "old base").unwrap(), 1);
    for frame in OLD_FRAMES {
        store.append("state", 1, frame).unwrap();
    }
    assert_eq!(store.save("state", "new base").unwrap(), 2);
    let path = dir.join("state.g2.ckpt");
    let base_len = std::fs::read(&path).unwrap().len();
    for frame in NEW_FRAMES {
        store.append("state", 2, frame).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        bytes.len(),
        base_len
            + NEW_FRAMES
                .iter()
                .map(|f| FRAME_HEADER_BYTES + f.len())
                .sum::<usize>()
    );
    (path, bytes, base_len)
}

/// Index of the g2 frame holding byte `pos` of the file.
fn frame_at(pos: usize, journal_at: usize) -> usize {
    let mut end = journal_at;
    for (i, frame) in NEW_FRAMES.iter().enumerate() {
        end += FRAME_HEADER_BYTES + frame.len();
        if pos < end {
            return i;
        }
    }
    panic!("byte {pos} is past the journal");
}

fn previous_generation() -> Vec<String> {
    let mut value = strings(&["old base"]);
    value.extend(strings(&OLD_FRAMES));
    value
}

fn newest_with_frames(n: usize) -> Vec<String> {
    let mut value = strings(&["new base"]);
    value.extend(strings(&NEW_FRAMES[..n]));
    value
}

#[test]
fn a_clean_journal_replays_every_frame_in_order() {
    let tmp = TempDir::new("clean");
    two_journaled_generations(&tmp.0);
    let (outcome, stats) = load(&tmp.0);
    assert_eq!(outcome, LoadOutcome::Valid(newest_with_frames(4)));
    assert_eq!(
        (
            stats.frames_read,
            stats.frames_applied,
            stats.frames_discarded
        ),
        (4, 4, 0)
    );
    assert!(stats.reconciles());
    // The write-once reader treats the same file's frames as damage.
    let store = DurableStore::open_real(&tmp.0, CONFIG).unwrap();
    assert!(matches!(
        store.load_with("state", decode).unwrap(),
        LoadOutcome::Recovered { .. } | LoadOutcome::Unrecoverable { .. }
    ));
}

#[test]
fn every_single_bit_flip_yields_exactly_the_frames_before_it() {
    let tmp = TempDir::new("bitflips");
    let (path, pristine, journal_at) = two_journaled_generations(&tmp.0);
    for pos in 0..pristine.len() {
        for bit in 0..8 {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 1 << bit;
            std::fs::write(&path, &damaged).unwrap();
            let (outcome, stats) = load(&tmp.0);
            assert!(stats.reconciles(), "byte {pos} bit {bit}: {stats:?}");
            if pos < journal_at {
                // Damage inside the base: the previous generation, whole.
                match outcome {
                    LoadOutcome::Recovered {
                        value, generation, ..
                    } => {
                        assert_eq!(generation, 1, "byte {pos} bit {bit}");
                        assert_eq!(value, previous_generation(), "byte {pos} bit {bit}");
                    }
                    other => panic!("byte {pos} bit {bit}: base damage resolved {other:?}"),
                }
                continue;
            }
            let hit = frame_at(pos, journal_at);
            let value = match outcome {
                // A length word flipped past the end of the file reads as
                // a torn tail; everything else is a named corrupt frame.
                LoadOutcome::Valid(value) => value,
                LoadOutcome::Recovered {
                    value,
                    generation,
                    skipped,
                } => {
                    assert_eq!(generation, 2);
                    assert_eq!(skipped.len(), 1);
                    assert_eq!(skipped[0].frame, Some(hit as u64 + 1));
                    value
                }
                other => panic!("byte {pos} bit {bit}: frame damage resolved {other:?}"),
            };
            assert_eq!(
                value,
                newest_with_frames(hit),
                "byte {pos} bit {bit} (frame {})",
                hit + 1
            );
            assert_eq!(stats.frames_applied, hit as u64);
            assert_eq!(stats.frames_discarded, 1);
        }
    }
}

#[test]
fn every_truncation_yields_exactly_the_whole_frames_before_the_cut() {
    let tmp = TempDir::new("truncations");
    let (path, pristine, journal_at) = two_journaled_generations(&tmp.0);
    for cut in 0..=pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let (outcome, stats) = load(&tmp.0);
        assert!(stats.reconciles(), "cut {cut}: {stats:?}");
        if cut < journal_at {
            match outcome {
                LoadOutcome::Recovered { value, .. } => {
                    assert_eq!(value, previous_generation(), "cut {cut}")
                }
                other => panic!("cut {cut}: a torn base resolved {other:?}"),
            }
            continue;
        }
        // A torn tail is the normal end of a journal: never a recovery.
        let whole = if cut == pristine.len() {
            NEW_FRAMES.len()
        } else {
            frame_at(cut, journal_at)
        };
        let on_boundary = cut == pristine.len()
            || cut
                == journal_at
                    + NEW_FRAMES[..whole]
                        .iter()
                        .map(|f| FRAME_HEADER_BYTES + f.len())
                        .sum::<usize>();
        assert_eq!(
            outcome,
            LoadOutcome::Valid(newest_with_frames(whole)),
            "cut {cut}"
        );
        assert_eq!(stats.frames_applied, whole as u64, "cut {cut}");
        assert_eq!(stats.frames_discarded, u64::from(!on_boundary), "cut {cut}");
    }
}

#[test]
fn a_frame_that_does_not_apply_stops_the_replay_like_a_corrupt_one() {
    let tmp = TempDir::new("inapplicable");
    two_journaled_generations(&tmp.0);
    let store = DurableStore::open_real(&tmp.0, CONFIG).unwrap();
    let picky = |value: &mut Vec<String>, delta: &str| {
        if delta == "x" {
            return false;
        }
        value.push(delta.to_string());
        true
    };
    match store.load_journal("state", decode, picky).unwrap() {
        LoadOutcome::Recovered { value, skipped, .. } => {
            assert_eq!(value, newest_with_frames(2));
            assert_eq!(skipped[0].to_string(), "g2 frame 3 corrupt_body");
        }
        other => panic!("expected a recovery, got {other:?}"),
    }
    let stats = store.stats();
    assert_eq!(
        (
            stats.frames_read,
            stats.frames_applied,
            stats.frames_discarded
        ),
        (4, 2, 2)
    );
}

// ---- the compaction policy ---------------------------------------------------

fn generations(dir: &Path) -> Vec<u64> {
    DurableStore::open_real(dir, CONFIG)
        .unwrap()
        .generations("state")
        .unwrap()
}

#[test]
fn checkpoints_append_until_the_journal_outweighs_its_base() {
    let tmp = TempDir::new("policy");
    let mut journal = Journal::new(DurableStore::open_real(&tmp.0, CONFIG).unwrap(), "state");
    let base = || "b".repeat(100);
    let delta = || "d".repeat(40);
    let never = || -> String { panic!("the other encoder ran") };

    // No open generation: a base, and only the base encoder runs.
    journal.checkpoint(base, never).unwrap();
    let s = journal.stats();
    assert_eq!((s.writes, s.appends, s.compactions), (1, 0, 0));

    // The base file is ~170 bytes and a frame 48: four appends fit, the
    // fourth tips the journal over, and the fifth checkpoint compacts.
    for appended in 1..=4 {
        journal.checkpoint(never, delta).unwrap();
        assert_eq!(journal.stats().appends, appended);
    }
    journal.checkpoint(base, never).unwrap();
    let s = journal.stats();
    assert_eq!((s.writes, s.appends, s.compactions), (2, 4, 1));
    assert_eq!(generations(&tmp.0), vec![1, 2]);

    // The folded generation is still there, whole, to fall back on.
    std::fs::write(tmp.0.join("state.g2.ckpt"), b"gone").unwrap();
    match load(&tmp.0).0 {
        LoadOutcome::Recovered {
            value, generation, ..
        } => {
            assert_eq!(generation, 1);
            assert_eq!(value.len(), 5, "base + four deltas");
        }
        other => panic!("expected the previous generation, got {other:?}"),
    }
}

#[test]
fn the_first_checkpoint_after_a_load_is_a_base_never_an_append() {
    let tmp = TempDir::new("resume");
    let (path, pristine, _) = two_journaled_generations(&tmp.0);
    // A crash tore the last frame.
    std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
    let mut journal = Journal::new(DurableStore::open_real(&tmp.0, CONFIG).unwrap(), "state");
    assert_eq!(
        journal.load(decode, apply).unwrap(),
        LoadOutcome::Valid(newest_with_frames(3))
    );
    journal
        .checkpoint(|| "resumed base".to_string(), || panic!("appended"))
        .unwrap();
    let s = journal.stats();
    assert_eq!((s.writes, s.appends, s.compactions), (1, 0, 1));
    assert_eq!(generations(&tmp.0), vec![2, 3]);
    assert_eq!(
        std::fs::read(&path).unwrap().len(),
        pristine.len() - 3,
        "the torn generation was written to"
    );
    journal
        .checkpoint(|| panic!("rewrote the base"), || "next".to_string())
        .unwrap();
    assert_eq!(
        load(&tmp.0).0,
        LoadOutcome::Valid(strings(&["resumed base", "next"]))
    );
}

#[test]
fn an_empty_delta_writes_nothing() {
    let tmp = TempDir::new("empty");
    let store = DurableStore::open_real(&tmp.0, CONFIG).unwrap();
    store.save("state", "base").unwrap();
    let before = std::fs::read(tmp.0.join("state.g1.ckpt")).unwrap();
    assert_eq!(store.append("state", 1, "").unwrap(), 0);
    assert_eq!(store.stats().appends, 0);
    assert_eq!(std::fs::read(tmp.0.join("state.g1.ckpt")).unwrap(), before);
    // And there is no appending to a generation that was never committed.
    assert!(store.append("state", 9, "delta").is_err());
}

// ---- appends under the fault plan ------------------------------------------

const CRASH_MARKER: &str = "simulated-disk-crash";

fn faulted(dir: &Path, spec: &str, seed: u64) -> DurableStore {
    let plan = DiskFaultPlan::parse(spec).unwrap().with_seed(seed);
    let vfs = Arc::new(FaultVfs::new(Arc::new(RealVfs), plan));
    DurableStore::open(dir, CONFIG, vfs).unwrap()
}

fn seed_for(point: CrashPoint, k: u64) -> u64 {
    (0..1024)
        .find(|&seed| {
            DiskFaultPlan::parse(&format!("crash-at-write-{k}"))
                .unwrap()
                .with_seed(seed)
                .crash_point(k)
                == Some(point)
        })
        .expect("no seed reaches the requested crash point")
}

/// `crash-at-write-K` counts writes *and* appends: with the base as
/// operation 1, K = 3 is the second append, at each of its crash points.
#[test]
fn a_crash_at_an_append_leaves_the_frames_before_it_or_the_whole_frame() {
    install_crash_hook(Box::new(|ctx| panic!("{CRASH_MARKER}: {ctx}")));
    for (point, phase, survivors) in [
        (CrashPoint::BeforeWrite, "before-append", 1),
        (CrashPoint::MidWrite, "mid-append", 1),
        (CrashPoint::AfterCommit, "after-append", 2),
    ] {
        let tmp = TempDir::new(&format!("crash-{phase}"));
        let store = faulted(&tmp.0, "crash-at-write-3", seed_for(point, 3));
        store.save("state", "base").unwrap();
        store.append("state", 1, "first delta").unwrap();
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            store.append("state", 1, "second delta, the one that dies")
        }));
        let payload = crashed.expect_err("crash-at-write-3 did not fire at the second append");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            text.contains(CRASH_MARKER) && text.contains(phase),
            "{text}"
        );
        assert!(text.contains("append 3 (state.g1.ckpt)"), "{text}");

        let (outcome, stats) = load(&tmp.0);
        let mut expected = strings(&["base", "first delta"]);
        if survivors == 2 {
            expected.push("second delta, the one that dies".to_string());
        }
        // Before / mid / after: never a recovery, only a shorter journal.
        assert_eq!(outcome, LoadOutcome::Valid(expected), "{phase}");
        assert!(stats.reconciles());
    }
}

#[test]
fn silent_faults_on_an_append_cost_that_frame_and_the_ones_after_it() {
    // Every append torn to 12 bytes: the journal is a run of stumps, and
    // the first of them ends the replay.
    let tmp = TempDir::new("torn-appends");
    DurableStore::open_real(&tmp.0, CONFIG)
        .unwrap()
        .save("state", "base")
        .unwrap();
    let torn = faulted(&tmp.0, "torn-at-byte-12", 0);
    for delta in ["first delta", "second delta", "third delta"] {
        torn.append("state", 1, delta).unwrap();
    }
    let (outcome, stats) = load(&tmp.0);
    match outcome {
        LoadOutcome::Valid(value) => assert_eq!(value, strings(&["base"])),
        LoadOutcome::Recovered { value, skipped, .. } => {
            assert_eq!(value, strings(&["base"]));
            assert_eq!(skipped[0].frame, Some(1));
        }
        other => panic!("expected the base alone, got {other:?}"),
    }
    assert_eq!((stats.frames_applied, stats.frames_discarded), (0, 1));

    // Bit rot on every append: frame 1 is named, nothing after it applies.
    let tmp = TempDir::new("rotten-appends");
    let rotten = faulted(&tmp.0, "bitflip-permille-1000", 3);
    // (the base write rots too, so commit it on the clean filesystem)
    DurableStore::open_real(&tmp.0, CONFIG)
        .unwrap()
        .save("state", "base")
        .unwrap();
    rotten.append("state", 1, "first delta").unwrap();
    rotten.append("state", 1, "second delta").unwrap();
    match load(&tmp.0).0 {
        LoadOutcome::Recovered { value, skipped, .. } => {
            assert_eq!(value, strings(&["base"]));
            assert_eq!(skipped[0].to_string(), "g1 frame 1 corrupt_body");
        }
        LoadOutcome::Valid(value) => assert_eq!(value, strings(&["base"])),
        other => panic!("expected the base alone, got {other:?}"),
    }
}

#[test]
fn a_full_device_fails_the_append_and_keeps_what_fit() {
    let tmp = TempDir::new("enospc");
    let store = faulted(&tmp.0, "enospc-after-120", 0);
    store.save("state", "base").unwrap();
    store.append("state", 1, "fits").unwrap();
    let err = store
        .append("state", 1, &"does not fit ".repeat(8))
        .unwrap_err();
    assert!(err.to_string().contains("ENOSPC"), "{err}");
    assert_eq!(store.stats().appends, 1, "a failed append is not counted");
    // The prefix that fit is a torn tail: a normal end of journal.
    assert_eq!(
        load(&tmp.0).0,
        LoadOutcome::Valid(strings(&["base", "fits"]))
    );
}

// ---- frame codec properties ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of non-empty payloads round-trips, in order, cleanly.
    #[test]
    fn frames_round_trip(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..200), 0..8),
    ) {
        let bytes: Vec<u8> = payloads.iter().flat_map(|p| encode_frame(p)).collect();
        let (read, end) = read_frames(&bytes);
        prop_assert_eq!(end, JournalEnd::Clean);
        prop_assert_eq!(read.len(), payloads.len());
        for (got, want) in read.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
    }

    /// Any cut and any flipped bit leave a verified *prefix* of the frames
    /// written: never a frame that was not written, never one out of order.
    #[test]
    fn damage_leaves_a_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..60), 1..6),
        cut in any::<u32>(),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let pristine: Vec<u8> = payloads.iter().flat_map(|p| encode_frame(p)).collect();
        let mut damaged = pristine.clone();
        let pos = pos as usize % damaged.len();
        damaged[pos] ^= 1 << bit;
        damaged.truncate(cut as usize % (pristine.len() + 1));
        let (read, end) = read_frames(&damaged);
        prop_assert!(read.len() <= payloads.len());
        for (got, want) in read.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
        // The frame holding the flipped bit never verifies.
        let mut frame_end = 0;
        let hit = payloads
            .iter()
            .position(|p| {
                frame_end += FRAME_HEADER_BYTES + p.len();
                pos < frame_end
            })
            .expect("pos is inside the journal");
        if damaged.len() > pos {
            prop_assert!(read.len() <= hit, "frame {} verified with a flipped bit", hit + 1);
            prop_assert!(end != JournalEnd::Clean);
        }
    }
}
