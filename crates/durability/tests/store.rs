//! Integration tests for the durable store under seeded disk faults:
//! torn writes, bit rot, a full device, and in-process crash-at-write
//! aborts (the process-level sweep lives in `ci/crash_matrix.sh`; here
//! the crash hook panics instead of exiting so every crash point can be
//! driven and recovered inside one test binary).

mod common;
use common::TempDir;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use squatphi_durability::{
    install_crash_hook, CrashPoint, DiskFaultPlan, DurableStore, FaultVfs, LoadOutcome, ReadClass,
    RealVfs, StoreError,
};

/// Payload marker the in-process crash hook panics with.
const CRASH_MARKER: &str = "simulated-disk-crash";

/// Installs the panicking crash hook (idempotent; first install wins
/// process-wide, which is fine — every test in this binary wants it).
fn hook_crashes_to_panics() {
    install_crash_hook(Box::new(|ctx| panic!("{CRASH_MARKER}: {ctx}")));
}

fn decode(body: &str) -> Option<String> {
    Some(body.to_string())
}

fn faulted(dir: &Path, config: u64, spec: &str, seed: u64) -> DurableStore {
    let plan = DiskFaultPlan::parse(spec).unwrap().with_seed(seed);
    let vfs = Arc::new(FaultVfs::new(Arc::new(RealVfs), plan));
    DurableStore::open(dir, config, vfs).unwrap()
}

// ---- torn writes -----------------------------------------------------------

#[test]
fn torn_writes_classify_and_recover() {
    let tmp = TempDir::new("torn");
    // A good first generation on the clean filesystem…
    let clean = DurableStore::open_real(&tmp.0, 1).unwrap();
    clean.save("state", "good old state").unwrap();
    // …then a writer whose every write loses its tail (byte 60 is past
    // the ~38-byte header line, so the tear lands in the protected
    // region and classifies as torn rather than corrupt-header).
    let torn = faulted(&tmp.0, 1, "torn-at-byte-60", 0);
    torn.save("state", "new state that will tear").unwrap();
    match clean.load_with("state", decode).unwrap() {
        LoadOutcome::Recovered {
            value,
            generation,
            skipped,
        } => {
            assert_eq!(value, "good old state");
            assert_eq!(generation, 1);
            assert_eq!(skipped[0].class, ReadClass::Torn);
        }
        other => panic!("expected torn recovery, got {other:?}"),
    }
}

// ---- bit rot ---------------------------------------------------------------

#[test]
fn bitflips_are_deterministic_and_always_detected() {
    let tmp_a = TempDir::new("bitflip-a");
    let tmp_b = TempDir::new("bitflip-b");
    for dir in [&tmp_a.0, &tmp_b.0] {
        let store = faulted(dir, 1, "bitflip-permille-1000", 42);
        store.save("state", "first body").unwrap();
        store.save("state", "second body").unwrap();
    }
    // Same seed, same write sequence → byte-identical mangled files.
    for gen in [1u64, 2] {
        let name = format!("state.g{gen}.ckpt");
        let a = std::fs::read(tmp_a.0.join(&name)).unwrap();
        let b = std::fs::read(tmp_b.0.join(&name)).unwrap();
        assert_eq!(a, b, "flips for {name} differ across identical runs");
    }
    // Every write was flipped, so nothing verifies.
    let reader = DurableStore::open_real(&tmp_a.0, 1).unwrap();
    match reader.load_with("state", decode).unwrap() {
        LoadOutcome::Unrecoverable { classes } => {
            assert!(classes.iter().all(|c| c.class.is_damage()), "{classes:?}");
        }
        other => panic!("expected unrecoverable under permille-1000 rot, got {other:?}"),
    }
    assert!(reader.stats().reconciles());
}

// ---- full device -----------------------------------------------------------

#[test]
fn enospc_fails_the_write_and_keeps_the_last_generation() {
    let tmp = TempDir::new("enospc");
    let store = faulted(&tmp.0, 1, "enospc-after-200", 0);
    store
        .save("state", "fits within the device budget")
        .unwrap();
    let err = store
        .save("state", "this second write blows the byte budget wide open")
        .unwrap_err();
    let StoreError::Io { message, .. } = err;
    assert!(message.contains("ENOSPC"), "unexpected error: {message}");
    // The failed write only dirtied a temp file; the committed state is
    // still the first generation and still verifies.
    let reader = DurableStore::open_real(&tmp.0, 1).unwrap();
    assert_eq!(
        reader.load_with("state", decode).unwrap(),
        LoadOutcome::Valid("fits within the device budget".to_string())
    );
}

// ---- crash points ----------------------------------------------------------

/// Finds a seed whose crash draw for write `k` lands on `point`.
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

/// Runs one crash-at-write scenario: commit one good generation, crash
/// at the second write at `point`, then verify recovery semantics.
fn crash_scenario(point: CrashPoint) {
    hook_crashes_to_panics();
    let tmp = TempDir::new(&format!("crash-{}", point.name()));
    let seed = seed_for(point, 2);
    let store = faulted(&tmp.0, 1, "crash-at-write-2", seed);
    store.save("state", "committed before the crash").unwrap();

    let crashed = catch_unwind(AssertUnwindSafe(|| store.save("state", "dies mid-flight")));
    let payload = crashed.expect_err("crash-at-write-2 did not abort the second write");
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(text.contains(CRASH_MARKER), "unexpected panic: {text}");
    assert!(
        text.contains(point.name()),
        "crashed at the wrong point: {text}"
    );

    // Recovery: a fresh store on the real filesystem must still load a
    // verified state — the pre-crash generation for pre-commit points,
    // the new one when the crash hit after the commit rename.
    let reader = DurableStore::open_real(&tmp.0, 1).unwrap();
    let expect = match point {
        CrashPoint::BeforeWrite | CrashPoint::MidWrite => "committed before the crash",
        CrashPoint::AfterCommit => "dies mid-flight",
    };
    match reader.load_with("state", decode).unwrap() {
        LoadOutcome::Valid(value) => assert_eq!(value, expect),
        other => panic!("expected a valid post-crash load, got {other:?}"),
    }

    // And the store keeps working: the next save commits a fresh
    // generation above everything the crash left behind.
    let next = reader.save("state", "post-recovery write").unwrap();
    assert!(next >= 2);
    assert_eq!(
        reader.load_with("state", decode).unwrap(),
        LoadOutcome::Valid("post-recovery write".to_string())
    );
}

#[test]
fn crash_before_write_keeps_previous_generation() {
    crash_scenario(CrashPoint::BeforeWrite);
}

#[test]
fn crash_mid_write_leaves_only_an_ignored_temp_file() {
    crash_scenario(CrashPoint::MidWrite);
}

#[test]
fn crash_after_commit_keeps_the_new_generation() {
    crash_scenario(CrashPoint::AfterCommit);
}

#[test]
fn crash_on_the_very_first_write_is_a_cold_start() {
    hook_crashes_to_panics();
    for point in [CrashPoint::BeforeWrite, CrashPoint::MidWrite] {
        let tmp = TempDir::new("crash-first");
        let seed = seed_for(point, 1);
        let store = faulted(&tmp.0, 1, "crash-at-write-1", seed);
        let crashed = catch_unwind(AssertUnwindSafe(|| store.save("state", "never lands")));
        assert!(crashed.is_err());
        // Nothing was ever durably committed: the reader sees a clean
        // cold start, not corruption.
        let reader = DurableStore::open_real(&tmp.0, 1).unwrap();
        assert_eq!(
            reader.load_with("state", decode).unwrap(),
            LoadOutcome::Missing
        );
    }
}

// ---- plan determinism across thread counts ---------------------------------

/// Disk-fault draws depend only on (seed, name, write seq) — two stores
/// driven identically from different thread counts mangle identically.
#[test]
fn fault_decisions_are_thread_count_independent() {
    let plan = DiskFaultPlan::parse("bitflip-permille-500")
        .unwrap()
        .with_seed(9);
    let single: Vec<Option<usize>> = (1..40).map(|s| plan.bitflip_for("state", s, 256)).collect();
    let threads: Vec<std::thread::JoinHandle<Vec<Option<usize>>>> = (0..4)
        .map(|_| {
            std::thread::spawn(move || (1..40).map(|s| plan.bitflip_for("state", s, 256)).collect())
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), single);
    }
}
