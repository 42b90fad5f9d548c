//! Property-based tests for the `StateFile` codec and generational
//! reader ([`squatphi_durability::store`]).
//!
//! The contract under test is the corruption-tolerance half of the
//! crash-consistency story: for *any* single-byte mutation or truncation
//! of *any* generation file, the reader never panics, never returns
//! mangled data as valid, and recovers to the last good generation (or
//! honestly reports the store unrecoverable when every generation is
//! damaged) — with the `durability.*` ledger reconciling either way.
//!
//! The properties run on the workspace harness `squatphi_prop`; the
//! inputs it once shrank failures to are kept below as fixed cases.

mod common;
use common::TempDir;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use squatphi_durability::{DurableStore, LoadOutcome, RealVfs, Vfs};
use squatphi_prop::{check, prop_assert, prop_assert_eq, Gen};

fn decode(body: &str) -> Option<String> {
    Some(body.to_string())
}

/// Builds a two-generation store: g1 = `old`, g2 = `new`.
fn two_generations(dir: &Path, old: &str, new: &str) -> DurableStore {
    let store = DurableStore::open_real(dir, 0x5eed_c0de).unwrap();
    store.save("state", old).unwrap();
    store.save("state", new).unwrap();
    store
}

/// A printable body of up to `max` chars (the regex `[ -~]{0,max}`).
fn body(g: &mut Gen, max: usize) -> String {
    g.string(" -~", 0..=max)
}

/// Two bodies, a byte position and a bit to flip there.
fn bodies_and_flip(g: &mut Gen) -> (String, String, u32, u8) {
    (body(g, 120), body(g, 120), g.u32(), g.below(8) as u8)
}

/// Flips bit `bit` of the byte at `pos` (mod length) of one generation.
fn flip(dir: &Path, gen: u64, pos: u32, bit: u8) {
    let path = dir.join(format!("state.g{gen}.ckpt"));
    let mut bytes = std::fs::read(&path).unwrap();
    let target = pos as usize % bytes.len();
    bytes[target] ^= 1 << bit;
    RealVfs.write(&path, &bytes).unwrap();
}

// ---- single-byte mutations ---------------------------------------------

/// Flipping any bit of the NEWEST generation is detected and the reader
/// falls back to the previous generation.
fn mutated_newest_recovers((old, new, pos, bit): (String, String, u32, u8)) -> Result<(), String> {
    let tmp = TempDir::new("prop");
    let store = two_generations(&tmp.0, &old, &new);
    flip(&tmp.0, 2, pos, bit);

    let outcome = catch_unwind(AssertUnwindSafe(|| store.load_with("state", decode)));
    let outcome = outcome.expect("reader panicked on a single-byte mutation");
    match outcome.unwrap() {
        LoadOutcome::Recovered {
            value, generation, ..
        } => {
            prop_assert_eq!(value, old, "recovered to the wrong body");
            prop_assert_eq!(generation, 1);
        }
        other => prop_assert!(false, "expected recovery, got {:?}", other),
    }
    prop_assert!(store.stats().reconciles(), "ledger does not reconcile");
    Ok(())
}

#[test]
fn mutated_newest_generation_recovers_to_previous() {
    check(
        "mutated_newest_generation_recovers_to_previous",
        96,
        bodies_and_flip,
        mutated_newest_recovers,
    );
}

/// Flipping any bit of the OLDER generation leaves the newest one serving
/// reads, untouched.
fn mutated_older_is_ignored((old, new, pos, bit): (String, String, u32, u8)) -> Result<(), String> {
    let tmp = TempDir::new("prop");
    let store = two_generations(&tmp.0, &old, &new);
    flip(&tmp.0, 1, pos, bit);

    let outcome = catch_unwind(AssertUnwindSafe(|| store.load_with("state", decode)));
    let outcome = outcome.expect("reader panicked on a single-byte mutation");
    prop_assert_eq!(outcome.unwrap(), LoadOutcome::Valid(new));
    prop_assert!(store.stats().reconciles());
    Ok(())
}

#[test]
fn mutated_older_generation_is_ignored() {
    check(
        "mutated_older_generation_is_ignored",
        96,
        bodies_and_flip,
        mutated_older_is_ignored,
    );
}

/// Inputs failures once shrank to: empty bodies with a flip in the magic,
/// and one-space bodies with the header newline flipped.
#[test]
fn recorded_bit_flips_in_either_generation() {
    for (old, new, pos, bit) in [("", "", 0, 0), (" ", " ", 38, 1)] {
        let case = (old.to_string(), new.to_string(), pos, bit);
        mutated_newest_recovers(case.clone()).unwrap();
        mutated_older_is_ignored(case).unwrap();
    }
}

// ---- truncations -------------------------------------------------------

/// Truncating the newest generation at any point recovers to the previous
/// generation (a full-length "truncation" stays valid).
fn truncated_newest_recovers((old, new, cut): (String, String, u32)) -> Result<(), String> {
    let tmp = TempDir::new("prop");
    let store = two_generations(&tmp.0, &old, &new);
    let path = tmp.0.join("state.g2.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    let cut = cut as usize % (bytes.len() + 1);
    RealVfs.write(&path, &bytes[..cut]).unwrap();

    let outcome = catch_unwind(AssertUnwindSafe(|| store.load_with("state", decode)));
    let outcome = outcome.expect("reader panicked on a truncation");
    match outcome.unwrap() {
        LoadOutcome::Valid(value) => {
            prop_assert_eq!(cut, bytes.len(), "short file classified valid");
            prop_assert_eq!(value, new);
        }
        LoadOutcome::Recovered { value, .. } => {
            prop_assert!(cut < bytes.len());
            prop_assert_eq!(value, old);
        }
        other => prop_assert!(false, "expected valid or recovery, got {:?}", other),
    }
    prop_assert!(store.stats().reconciles());
    Ok(())
}

#[test]
fn truncated_newest_generation_recovers() {
    let gen = |g: &mut Gen| (body(g, 120), body(g, 120), g.u32());
    check(
        "truncated_newest_generation_recovers",
        96,
        gen,
        truncated_newest_recovers,
    );
}

/// An input a failure once shrank to: empty bodies, truncated to an empty
/// file.
#[test]
fn recorded_truncation_to_an_empty_file() {
    truncated_newest_recovers((String::new(), String::new(), 0)).unwrap();
}

// ---- total damage ------------------------------------------------------

/// Damaging every generation never panics: the store reports unrecoverable
/// rather than inventing or silently dropping state.
#[test]
fn damaging_every_generation_is_reported_not_papered_over() {
    let gen = |g: &mut Gen| {
        (
            body(g, 120),
            body(g, 120),
            g.u32(),
            g.u32(),
            g.below(8) as u8,
        )
    };
    check(
        "damaging_every_generation_is_reported_not_papered_over",
        96,
        gen,
        |(old, new, pos1, pos2, bit)| {
            let tmp = TempDir::new("prop");
            let store = two_generations(&tmp.0, &old, &new);
            for (gen, pos) in [(1u64, pos1), (2, pos2)] {
                flip(&tmp.0, gen, pos, bit);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| store.load_with("state", decode)));
            let outcome = outcome.expect("reader panicked with every generation damaged");
            match outcome.unwrap() {
                LoadOutcome::Unrecoverable { classes } => {
                    prop_assert_eq!(classes.len(), 2, "both generations should be classified");
                }
                other => prop_assert!(false, "expected unrecoverable, got {:?}", other),
            }
            prop_assert!(store.stats().reconciles());
            Ok(())
        },
    );
}

// ---- round-trip sanity over arbitrary bodies ---------------------------

/// Unmutated stores round-trip any printable body exactly, over any number
/// of rewrites, and the ledger accounts every read.
#[test]
fn clean_stores_round_trip() {
    let gen = |g: &mut Gen| g.vec(1..6, |g| body(g, 80));
    check("clean_stores_round_trip", 96, gen, |bodies| {
        let tmp = TempDir::new("prop");
        let store = DurableStore::open_real(&tmp.0, 7).unwrap();
        for body in &bodies {
            store.save("state", body).unwrap();
            let loaded = store.load_with("state", decode).unwrap();
            prop_assert_eq!(loaded, LoadOutcome::Valid(body.clone()));
        }
        let stats = store.stats();
        prop_assert_eq!(stats.reads, bodies.len() as u64);
        prop_assert_eq!(stats.valid, bodies.len() as u64);
        prop_assert_eq!(stats.writes, bodies.len() as u64);
        prop_assert!(stats.reconciles());
        Ok(())
    });
}
