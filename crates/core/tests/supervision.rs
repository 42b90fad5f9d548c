//! Integration tests for the supervised pipeline runner: quarantine
//! determinism, fault-plan reconciliation, and checkpoint/resume
//! byte-equality (asserted via [`PipelineResult::fingerprint`]).

use squatphi::pipeline::{PipelineResult, SquatPhi};
use squatphi::{PipelineErrorKind, PipelineFaultPlan, PipelineStage, RunOptions, SimConfig};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("squatphi-supervision-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn no_tmp_leftovers(dir: &PathBuf) -> bool {
    std::fs::read_dir(dir)
        .map(|mut entries| {
            entries.all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
        })
        .unwrap_or(true)
}

/// The fault matrix used across these tests: persistent panics on 6% of
/// pages, flaky (recoverable) panics on 4%, poisoned HTML on 5%, and
/// truncated crawl records on 3%.
fn storm() -> PipelineFaultPlan {
    PipelineFaultPlan::parse(
        "panic-permille-60,flaky-permille-40,poison-permille-50,truncate-permille-30",
    )
    .unwrap()
    .with_seed(77)
}

fn faulted(config: &SimConfig, threads: usize) -> PipelineResult {
    let mut config = config.clone();
    config.threads = threads;
    let opts = RunOptions {
        faults: storm(),
        ..RunOptions::default()
    };
    match SquatPhi::try_run(&config, &opts) {
        Ok(r) => r,
        Err(e) => panic!("faulted run must degrade, not fail: {e}"),
    }
}

#[test]
fn fault_storm_completes_and_reconciles() {
    let r = faulted(&SimConfig::micro(), 2);
    let s = &r.supervision;
    assert!(s.reconciles(), "unreconciled report: {}", s.report_line());
    assert!(
        s.injected.analyzer_panics > 0,
        "the storm planted no panics"
    );
    assert!(s.injected.poisoned_pages > 0, "the storm poisoned no pages");
    assert!(
        s.injected.truncated_records > 0,
        "the storm truncated no records"
    );
    assert!(
        !s.quarantined.is_empty(),
        "persistent panics must quarantine records"
    );
    assert!(s.recovered > 0, "flaky panics must recover within budget");
    assert!(
        s.degraded >= s.injected.poisoned_pages,
        "poisoned pages must degrade, not drop"
    );
    // Quarantined training pages are excluded from the split, which must
    // still match what training saw.
    assert_eq!(r.train_split, r.eval.train_shape);
    // Injected quarantines carry their stage and the planted cause.
    assert!(s
        .quarantined
        .iter()
        .filter(|q| q.injected)
        .all(|q| q.cause.contains("injected")));
}

#[test]
fn quarantine_is_deterministic_across_thread_counts() {
    let base = faulted(&SimConfig::micro(), 1);
    for threads in [4, 8] {
        let other = faulted(&SimConfig::micro(), threads);
        assert_eq!(
            base.supervision, other.supervision,
            "supervision diverged between 1 and {threads} threads"
        );
        assert_eq!(
            base.fingerprint(),
            other.fingerprint(),
            "pipeline output diverged between 1 and {threads} threads"
        );
        let counters = |r: &PipelineResult| {
            let a = &r.analysis;
            (a.pages, a.cache_hits, a.cache_misses, a.key_collisions)
        };
        assert_eq!(
            counters(&base),
            counters(&other),
            "analysis counters diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn resume_after_crawl_checkpoint_is_byte_identical() {
    let dir = tmpdir("resume");
    let config = SimConfig::micro();
    // "Kill" the run right after the crawl checkpoint lands.
    let interrupted = SquatPhi::try_run(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(PipelineStage::Crawl),
            ..RunOptions::default()
        },
    );
    let Err(e) = interrupted else {
        panic!("stop_after crawl did not interrupt");
    };
    assert!(e.is_interrupted());
    assert_eq!(e.completed, vec![PipelineStage::Scan, PipelineStage::Crawl]);
    assert!(no_tmp_leftovers(&dir), "partial checkpoint write leaked");

    let resumed = SquatPhi::try_run(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("resume failed: {e}"));
    assert_eq!(
        resumed.supervision.resumed_stages,
        vec!["scan", "crawl"],
        "resume must replay exactly the checkpointed stages"
    );

    let direct = match SquatPhi::try_run(&config, &RunOptions::default()) {
        Ok(r) => r,
        Err(e) => panic!("direct run failed: {e}"),
    };
    assert_eq!(
        resumed.fingerprint(),
        direct.fingerprint(),
        "resumed output differs from an uninterrupted run"
    );
    assert!(no_tmp_leftovers(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_replays_fault_accounting() {
    let dir = tmpdir("faulted-resume");
    let config = SimConfig::micro();
    let opts = |resume: bool, stop: Option<PipelineStage>| RunOptions {
        checkpoint_dir: Some(dir.clone()),
        resume,
        stop_after: stop,
        faults: storm(),
        ..RunOptions::default()
    };
    let Err(e) = SquatPhi::try_run(&config, &opts(false, Some(PipelineStage::Crawl))) else {
        panic!("stop_after crawl did not interrupt");
    };
    assert!(e.is_interrupted());
    let resumed = SquatPhi::try_run(&config, &opts(true, None))
        .unwrap_or_else(|e| panic!("faulted resume failed: {e}"));
    let direct = faulted(&config, 2);
    // The crawl checkpoint replays its truncation count, so even the
    // fault accounting matches the uninterrupted run.
    assert_eq!(resumed.supervision.truncated, direct.supervision.truncated);
    assert!(resumed.supervision.reconciles());
    assert_eq!(resumed.fingerprint(), direct.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_invalidates_checkpoints() {
    let dir = tmpdir("invalidate");
    let config = SimConfig::micro();
    let Err(e) = SquatPhi::try_run(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(PipelineStage::Crawl),
            ..RunOptions::default()
        },
    ) else {
        panic!("stop_after crawl did not interrupt");
    };
    assert!(e.is_interrupted());

    let mut changed = config.clone();
    changed.seed = config.seed + 1;
    let resumed = SquatPhi::try_run(
        &changed,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("resume under changed config failed: {e}"));
    // The stale checkpoints are detected, recorded, and recomputed —
    // never silently replayed into the wrong run.
    assert!(resumed.supervision.resumed_stages.is_empty());
    assert!(resumed
        .supervision
        .invalidated_checkpoints
        .contains(&"scan"));
    let direct = match SquatPhi::try_run(&changed, &RunOptions::default()) {
        Ok(r) => r,
        Err(e) => panic!("direct run failed: {e}"),
    };
    assert_eq!(resumed.fingerprint(), direct.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fail_fast_surfaces_the_first_panic() {
    let opts = RunOptions {
        faults: PipelineFaultPlan::parse("panic-permille-200")
            .unwrap()
            .with_seed(3),
        fail_fast: true,
        ..RunOptions::default()
    };
    let Err(e) = SquatPhi::try_run(&SimConfig::micro(), &opts) else {
        panic!("fail_fast under a 20% panic storm must abort");
    };
    match &e.kind {
        PipelineErrorKind::StagePanic { key, cause } => {
            assert!(!key.is_empty());
            assert!(cause.contains("injected"));
        }
        other => panic!("expected StagePanic, got {other:?}"),
    }
    assert!(
        e.completed.contains(&PipelineStage::Crawl),
        "panic must carry partial progress (completed: {:?})",
        e.completed
    );
}
