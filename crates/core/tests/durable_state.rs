//! Crash-point recovery matrix (in-process half; `ci/crash_matrix.sh`
//! sweeps the same plans across real process boundaries).
//!
//! Contracts:
//!
//! * crashing at *every* durable operation `K` of a checkpointed run —
//!   pipeline stage writes; watch base writes, journal appends (before,
//!   mid-append with a torn frame, after) and compactions — and then
//!   resuming without faults reproduces the uninterrupted run
//!   byte-for-byte (summary JSON and state fingerprint),
//! * the `durability.*` telemetry is a pure function of the seeded plan:
//!   identical across two runs and across worker-thread counts 1/4/8,
//!   and it always satisfies the read-accounting invariant,
//! * a store whose every generation is damaged fails a `--resume` with a
//!   structured unrecoverable error instead of silently recomputing.

use squatphi::{
    DiskFaultPlan, PipelineErrorKind, RunOptions, SimConfig, SquatPhi, WatchConfig, WatchOptions,
};
use squatphi_durability::{install_crash_hook, RealVfs, Vfs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;

/// Panic payload marker of the in-process crash hook.
const CRASH_MARKER: &str = "simulated-disk-crash";

static HOOKS: Once = Once::new();

/// Routes simulated `crash-at-write-K` aborts into catchable panics and
/// silences their (expected, repeated) panic-hook output.
fn install_hooks() {
    HOOKS.call_once(|| {
        install_crash_hook(Box::new(|context| {
            panic!("{CRASH_MARKER}: {context}");
        }));
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let simulated = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(CRASH_MARKER));
            if !simulated {
                default(info);
            }
        }));
    });
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "squatphi-durable-state-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn watch_config(threads: usize) -> WatchConfig {
    WatchConfig::builder()
        .brands(16)
        .seed(20180401)
        .events(400)
        .ingest_capacity(32)
        .candidate_capacity(8)
        .detect_batch(8)
        .crawl_cadence(3)
        .crawl_batch(6)
        .threads(threads)
        .checkpoint_every(24)
        .build()
        .expect("watch config is valid")
}

fn crash_plan(k: u64) -> DiskFaultPlan {
    DiskFaultPlan::parse(&format!("crash-at-write-{k}"))
        .expect("valid crash plan")
        .with_seed(k)
}

/// Which kind of durable operation a simulated crash interrupted, from
/// the crash context (`write 3 (watch.g2.ckpt.tmp): mid-write …`,
/// `append 2 (watch.g1.ckpt): after-append`, `commit of watch.g2.ckpt:
/// after-commit …`). In a fresh directory generation 1 is the first
/// base and every later generation a compaction.
fn crash_kind(context: &str) -> &'static str {
    let compaction = !context.contains("watch.g1.ckpt");
    match context {
        c if c.contains("before-append") => "append, before",
        c if c.contains("mid-append") => "append, torn frame",
        c if c.contains("after-append") => "append, after",
        c if c.contains("append") => panic!("unknown append crash point: {c}"),
        _ if compaction => "compaction",
        _ => "first base",
    }
}

#[test]
fn watch_crash_at_every_write_resumes_byte_identically() {
    install_hooks();
    let config = watch_config(4);
    let baseline = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("baseline run");

    // Count the durable operations of a full checkpointed run; the crash
    // sweep below covers every one of them.
    let count_dir = temp_dir("watch-count");
    let counted = SquatPhi::try_watch(
        &config,
        &WatchOptions {
            checkpoint_dir: Some(count_dir.clone()),
            ..WatchOptions::default()
        },
    )
    .expect("counting run");
    let d = counted.durability;
    assert!(
        d.writes >= 2 && d.appends >= 6 && d.compactions >= 1,
        "too few durable operations to sweep: {d:?}"
    );
    assert_eq!(
        counted.to_json(),
        baseline.to_json(),
        "checkpointing must not change the summary"
    );
    let _ = std::fs::remove_dir_all(&count_dir);

    let mut kinds = std::collections::BTreeSet::new();
    for k in 1..=d.writes + d.appends {
        let dir = temp_dir(&format!("watch-crash-{k}"));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            SquatPhi::try_watch(
                &config,
                &WatchOptions {
                    checkpoint_dir: Some(dir.clone()),
                    disk_faults: crash_plan(k),
                    ..WatchOptions::default()
                },
            )
        }));
        let payload = crashed.expect_err("crash-at-write-{k} did not fire");
        let text = payload
            .downcast_ref::<String>()
            .expect("crash hook panics with a String payload");
        assert!(text.contains(CRASH_MARKER), "unexpected panic: {text}");
        kinds.insert(crash_kind(text));

        // Restart against whatever the crash left on disk — no faults now.
        let resumed = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..WatchOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("resume after crash at operation {k} failed: {e}"));
        assert_eq!(
            resumed.state_fingerprint, baseline.state_fingerprint,
            "crash at operation {k} ({text}): fingerprint diverged"
        );
        assert_eq!(
            resumed.to_json(),
            baseline.to_json(),
            "crash at operation {k} ({text}): summary diverged"
        );
        assert_eq!(
            resumed.recovered_checkpoint, None,
            "crash at operation {k} ({text}): a crash leaves a torn tail or an \
             ignored temp file, never damage to recover from"
        );
        assert!(
            resumed.durability.reconciles(),
            "crash at operation {k}: durability ledger does not reconcile: {:?}",
            resumed.durability
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let all = [
        "first base",
        "compaction",
        "append, before",
        "append, torn frame",
        "append, after",
    ];
    assert_eq!(
        kinds,
        all.into_iter().collect(),
        "the sweep must crash at least once in each kind of durable operation"
    );
}

#[test]
fn pipeline_crash_at_every_write_resumes_to_the_same_fingerprint() {
    install_hooks();
    let config = SimConfig::micro();
    let baseline = SquatPhi::try_run(&config, &RunOptions::default()).expect("baseline run");

    let count_dir = temp_dir("pipeline-count");
    let counted = SquatPhi::try_run(
        &config,
        &RunOptions {
            checkpoint_dir: Some(count_dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("counting run");
    let writes = counted.durability.writes;
    assert!(writes >= 3, "too few durable writes to sweep: {writes}");
    assert_eq!(counted.fingerprint(), baseline.fingerprint());
    let _ = std::fs::remove_dir_all(&count_dir);

    for k in 1..=writes {
        let dir = temp_dir(&format!("pipeline-crash-{k}"));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            SquatPhi::try_run(
                &config,
                &RunOptions {
                    checkpoint_dir: Some(dir.clone()),
                    disk_faults: crash_plan(k),
                    ..RunOptions::default()
                },
            )
        }));
        assert!(crashed.is_err(), "crash at write {k} did not fire");

        let resumed = SquatPhi::try_run(
            &config,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("resume after crash at write {k} failed: {e}"));
        assert_eq!(
            resumed.fingerprint(),
            baseline.fingerprint(),
            "crash at write {k}: resumed fingerprint diverged"
        );
        assert!(
            resumed.durability.reconciles(),
            "crash at write {k}: durability ledger does not reconcile: {:?}",
            resumed.durability
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn durability_telemetry_is_deterministic_across_runs_and_threads() {
    install_hooks();
    // Bit rot on roughly a quarter of the durable writes: some checkpoint
    // generations are silently damaged, so the resumed load exercises the
    // recovery classifier — deterministically, whatever the thread count.
    let plan = DiskFaultPlan::parse("bitflip-permille-250")
        .expect("valid plan")
        .with_seed(20180401);
    let mut by_threads = Vec::new();
    for threads in [1usize, 4, 8] {
        let config = watch_config(threads);
        let mut per_run = Vec::new();
        for run in 0..2 {
            let dir = temp_dir(&format!("telemetry-t{threads}-r{run}"));
            let stopped = SquatPhi::try_watch(
                &config,
                &WatchOptions {
                    checkpoint_dir: Some(dir.clone()),
                    stop_after: Some(120),
                    disk_faults: plan,
                    ..WatchOptions::default()
                },
            )
            .expect("interrupted run under bit rot");
            let resumed = SquatPhi::try_watch(
                &config,
                &WatchOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    disk_faults: plan,
                    ..WatchOptions::default()
                },
            )
            .expect("resumed run under bit rot");
            // The durability scope must satisfy the read-accounting
            // invariant in the exported registry, not just the struct.
            let snap = resumed.telemetry().snapshot();
            if let Err(violations) =
                squatphi_telemetry::invariants::durability_invariants().check_all(&snap)
            {
                panic!("threads={threads} run={run}: {violations:?}");
            }
            per_run.push((stopped.durability, resumed.durability, resumed.to_json()));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            per_run[0], per_run[1],
            "threads={threads}: two identical runs diverged in durability telemetry"
        );
        by_threads.push(per_run.remove(0));
    }
    assert_eq!(
        by_threads[0], by_threads[1],
        "1 vs 4 threads changed durability telemetry"
    );
    assert_eq!(
        by_threads[1], by_threads[2],
        "4 vs 8 threads changed durability telemetry"
    );
}

#[test]
fn pipeline_resume_against_a_fully_damaged_store_is_a_structured_error() {
    install_hooks();
    let config = SimConfig::micro();
    let dir = temp_dir("pipeline-unrecoverable");
    let full = SquatPhi::try_run(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("checkpointed run");
    assert!(full.durability.writes >= 1);

    // Damage every on-disk generation of the scan checkpoint.
    let mut damaged = 0;
    for name in RealVfs.list(&dir).expect("list checkpoint dir") {
        if name.starts_with("scan.g") {
            RealVfs
                .write(&dir.join(&name), b"{\"version\": 1, tru")
                .expect("damage generation");
            damaged += 1;
        }
    }
    assert!(damaged >= 1, "no scan generations found to damage");

    let Err(err) = SquatPhi::try_run(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOptions::default()
        },
    ) else {
        panic!("resume against a damaged store must fail");
    };
    match &err.kind {
        PipelineErrorKind::Checkpoint(squatphi::CheckpointError::Unrecoverable {
            name, ..
        }) => assert_eq!(*name, "scan"),
        other => panic!("expected a structured unrecoverable error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
