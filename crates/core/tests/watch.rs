//! Tier-1 gates for the streaming watch daemon: seeded determinism,
//! watermark resume equality across kill points, and bounded-queue
//! backpressure reconciliation at several worker-thread counts.

use squatphi::{SquatPhi, WatchConfig, WatchOptions};
use std::path::PathBuf;

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
        .checkpoint_every(48)
        .build()
        .expect("watch config is valid")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("squatphi-watch-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn watch_is_seeded_deterministic() {
    let config = watch_config(4);
    let a = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("run a");
    let b = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("run b");
    assert_eq!(a.to_json(), b.to_json(), "two identical runs diverged");
    assert_eq!(a.state_fingerprint, b.state_fingerprint);
    assert!(
        a.reconciles(),
        "counters do not reconcile: {:?}",
        a.counters
    );

    // A different seed must actually change the run.
    let other = WatchConfig::builder()
        .brands(16)
        .seed(20180402)
        .events(400)
        .ingest_capacity(32)
        .candidate_capacity(8)
        .detect_batch(8)
        .crawl_cadence(3)
        .crawl_batch(6)
        .threads(4)
        .checkpoint_every(48)
        .build()
        .expect("other config");
    let c = SquatPhi::try_watch(&other, &WatchOptions::default()).expect("run c");
    assert_ne!(
        a.state_fingerprint, c.state_fingerprint,
        "seed had no effect"
    );
}

#[test]
fn resume_reproduces_the_uninterrupted_fingerprint_at_any_kill_point() {
    let config = watch_config(4);
    let full = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("uninterrupted run");
    assert!(!full.interrupted);

    for kill_at in [40u64, 130, 250, 390] {
        let dir = temp_dir(&format!("kill{kill_at}"));
        let stopped = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: false,
                stop_after: Some(kill_at),
                ..WatchOptions::default()
            },
        )
        .expect("interrupted run");
        assert!(stopped.interrupted, "kill at {kill_at} did not interrupt");
        assert!(stopped.watermark >= kill_at);

        let resumed = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                stop_after: None,
                ..WatchOptions::default()
            },
        )
        .expect("resumed run");
        assert!(!resumed.interrupted);
        assert_eq!(
            resumed.state_fingerprint, full.state_fingerprint,
            "kill at {kill_at}: resumed fingerprint diverged"
        );
        assert_eq!(
            resumed.to_json(),
            full.to_json(),
            "kill at {kill_at}: resumed summary diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn backpressure_reconciles_exactly_at_every_thread_count() {
    // Tight queues force both failure modes: ingest drops and detect
    // stalls.
    let tight = WatchConfig::builder()
        .brands(16)
        .seed(99)
        .events(600)
        .ingest_capacity(4)
        .candidate_capacity(2)
        .detect_batch(3)
        .crawl_cadence(5)
        .crawl_batch(4)
        .checkpoint_every(64);
    // The default-queue stream on which `state_fingerprint` used to
    // depend on the thread count: sweeps whose jobs share a host raced
    // to its circuit breaker.
    let shared_hosts = WatchConfig::builder().seed(2020).events(10_000);

    // Whatever the thread count, the accounting identities and the final
    // state must be identical.
    for (name, builder, tight_queues) in
        [("tight", tight, true), ("seed-2020", shared_hosts, false)]
    {
        let run = |threads: usize| {
            let config = builder.clone().threads(threads).build().expect("config");
            let summary = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("run");
            assert!(
                summary.reconciles(),
                "{name} threads={threads}: counters do not reconcile: {:?}",
                summary.counters
            );
            // Backpressure must never lose events silently: injected
            // events all land in exactly one counter.
            assert_eq!(
                summary.counters.injected,
                summary.counters.accepted + summary.counters.dropped()
            );
            if tight_queues {
                assert!(
                    summary.counters.dropped() > 0,
                    "{name} threads={threads}: tight queues produced no drops"
                );
                assert!(
                    summary.counters.detect_stalls > 0,
                    "{name} threads={threads}: tight candidate queue produced no stalls"
                );
            }
            (summary.state_fingerprint, summary.to_json())
        };
        let single = run(1);
        // Ten runs at 4 threads, so a race cannot hide behind one lucky
        // schedule.
        for threads in [2, 8].into_iter().chain([4; 10]) {
            assert_eq!(
                run(threads),
                single,
                "{name}: 1 vs {threads} threads changed the run"
            );
        }
    }
}

#[test]
fn watch_metrics_history_is_monotone() {
    let config = watch_config(2);
    let summary = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("run");
    assert!(!summary.metrics.is_empty(), "no metrics snapshots emitted");
    for pair in summary.metrics.windows(2) {
        assert!(pair[0].tick < pair[1].tick, "ticks not increasing");
        assert!(pair[0].injected <= pair[1].injected);
        assert!(pair[0].processed <= pair[1].processed);
        assert!(pair[0].detected <= pair[1].detected);
        assert!(pair[0].blacklisted <= pair[1].blacklisted);
    }
    let last = summary.metrics.last().expect("nonempty");
    assert_eq!(last.injected, summary.counters.injected);
}

/// Each watermark is committed once. `squatphi watch --seed 7 --events
/// 1000 --stop-after 520` stops on a tick that also crosses
/// `checkpoint_every`, and an uninterrupted run's last periodic
/// checkpoint can be its final state: the full-rewrite path saved such a
/// watermark twice (9 commits for the interrupted run). One durable
/// operation per checkpointed tick makes it 8, and never more operations
/// than ticks.
#[test]
fn a_watermark_is_never_committed_twice() {
    let config = WatchConfig::builder()
        .seed(7)
        .events(1000)
        .build()
        .expect("the CLI's default config");
    let baseline = SquatPhi::try_watch(&config, &WatchOptions::default()).expect("baseline");
    let dir = temp_dir("no-duplicates");
    let stopped = SquatPhi::try_watch(
        &config,
        &WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(520),
            ..WatchOptions::default()
        },
    )
    .expect("interrupted run");
    assert_eq!(stopped.watermark, 520);
    let d = stopped.durability;
    assert_eq!(d.writes + d.appends, 8, "{d:?}");

    let resumed = SquatPhi::try_watch(
        &config,
        &WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..WatchOptions::default()
        },
    )
    .expect("resumed run");
    assert_eq!(resumed.to_json(), baseline.to_json());
    let d = resumed.durability;
    assert_eq!(d.writes + d.appends, 8, "{d:?}");
    assert!(d.writes + d.appends <= resumed.tick - stopped.tick);

    // A run with nothing left to do resumes and writes nothing at all.
    let again = SquatPhi::try_watch(
        &config,
        &WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..WatchOptions::default()
        },
    )
    .expect("second resume");
    assert_eq!(again.to_json(), baseline.to_json());
    let d = again.durability;
    assert_eq!((d.writes, d.appends, d.valid), (0, 0, 1), "{d:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
