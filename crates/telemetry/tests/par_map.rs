//! The contract of [`squatphi_telemetry::par_map`]: index order,
//! exactly-once, no thread for a batch that cannot fill a second worker's
//! run, and panics that reach the caller intact; and of
//! [`squatphi_telemetry::lock_unpoisoned`]: a worker's panic does not
//! lock later callers out. The agreement property runs on the workspace
//! harness `squatphi_prop`.

use squatphi_prop::{check, prop_assert_eq, Gen};
use squatphi_telemetry::{lock_unpoisoned, par_map};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

const GRAIN: usize = 8;
const LENS: [usize; 5] = [0, 1, GRAIN - 1, 2 * GRAIN, 10 * GRAIN + 3];
const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn results_are_in_index_order_and_every_index_runs_exactly_once() {
    for len in LENS {
        for threads in THREADS {
            let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(len, threads, GRAIN, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i * i
            });
            let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
            assert_eq!(out, expected, "len {len}, threads {threads}");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "len {len}, threads {threads}: an index ran twice or never"
            );
        }
    }
}

#[test]
fn a_batch_below_two_grains_or_one_thread_stays_on_the_caller() {
    let caller = thread::current().id();
    for len in LENS {
        for threads in THREADS {
            let ran_on: Vec<ThreadId> = par_map(len, threads, GRAIN, |_| thread::current().id());
            if len < 2 * GRAIN || threads == 1 {
                assert!(
                    ran_on.iter().all(|&id| id == caller),
                    "len {len}, threads {threads}: an item left the calling thread"
                );
            }
        }
    }
}

#[test]
fn a_panic_in_f_reaches_the_caller_with_its_message() {
    for threads in THREADS {
        let caught = std::panic::catch_unwind(|| {
            par_map(10 * GRAIN, threads, GRAIN, |i| {
                if i == 5 * GRAIN + 1 {
                    panic!("item {i} is poisoned");
                }
                i
            })
        })
        .expect_err("the panic must not be swallowed");
        let message = caught
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String payload");
        assert_eq!(message, "item 41 is poisoned", "threads {threads}");
    }
}

#[test]
fn a_lock_held_through_a_worker_panic_still_locks() {
    let log = Mutex::new(Vec::new());
    for threads in THREADS {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(4 * GRAIN, threads, GRAIN, |i| {
                let mut entries = lock_unpoisoned(&log);
                entries.push(i);
                if i == GRAIN + 1 {
                    panic!("item {i} panics holding the lock");
                }
            })
        }));
        assert!(caught.is_err(), "threads {threads}: the panic must surface");
        assert!(log.is_poisoned(), "threads {threads}");
        let mut entries = lock_unpoisoned(&log);
        assert!(entries.contains(&(GRAIN + 1)), "threads {threads}");
        entries.clear();
    }
}

#[test]
fn agrees_with_the_sequential_map() {
    let gen = |g: &mut Gen| {
        (
            g.below(300) as usize,
            g.range(1..9) as usize,
            g.range(1..40) as usize,
            g.u64(),
        )
    };
    check(
        "agrees_with_the_sequential_map",
        200,
        gen,
        |(len, threads, grain, salt)| {
            let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            let expected: Vec<u64> = (0..len).map(f).collect();
            prop_assert_eq!(par_map(len, threads, grain, f), expected);
            Ok(())
        },
    );
}
