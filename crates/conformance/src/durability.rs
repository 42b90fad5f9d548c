//! Durability oracle: exhaustive single-byte damage over a real
//! two-generation [`DurableStore`] — once with plain write-once
//! generations, once with each generation a base plus a journal of delta
//! frames.
//!
//! Contract under test, per seeded body, plain store:
//!
//! * damaging the newest generation at *any* byte — one flipped bit or a
//!   truncation at any length — never panics the reader, and every such
//!   load recovers the previous generation's exact body,
//! * damaging both generations yields [`LoadOutcome::Unrecoverable`]
//!   (never a silently wrong `Valid`/`Recovered` value),
//! * a config-hash mismatch classifies as [`LoadOutcome::Stale`] and an
//!   empty store as [`LoadOutcome::Missing`],
//! * after every load the store's [`DurabilityStats`] ledger reconciles
//!   (`reads == valid + recovered + recomputed + unrecoverable`).
//!
//! And over the base + journal store, where a value is the base body
//! followed by every frame replayed over it:
//!
//! * damage inside the newest generation's base recovers the previous
//!   generation's base *and its whole journal*,
//! * damage inside frame `i` of its journal — or a truncation anywhere
//!   in it — yields the base plus exactly frames `1..i`: never a later
//!   frame, never an altered one, and a truncation is never reported as
//!   a recovery (a torn tail is how a journal normally ends),
//! * `frames_read == frames_applied + frames_discarded` after every load.
//!
//! Damage is injected by rewriting generation files through
//! [`RealVfs`] — the same write path the store itself uses — and every
//! case restores the pristine bytes afterwards, so cases are independent.
//!
//! [`DurabilityStats`]: squatphi_durability::DurabilityStats

use crate::{Params, Violation};
use squatphi_durability::{
    DurableStore, LoadOutcome, RealVfs, StoreError, Vfs, FRAME_HEADER_BYTES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Concurrent harness invocations must not share a store directory.
static INVOCATION: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 — the oracle's only randomness, a pure function of the seed.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded printable body; varied lengths exercise torn-length edges.
fn body_for(seed: u64, index: usize, gen: u64) -> String {
    let mut h = mix(seed ^ (index as u64) << 8 ^ gen);
    let len = 24 + (h % 48) as usize;
    let mut s = String::with_capacity(len);
    for _ in 0..len {
        h = mix(h);
        s.push(char::from(b'!' + (h % 94) as u8));
    }
    s
}

/// One fresh open + load, reporting the outcome and whether the ledger
/// reconciled. A fresh store per case keeps the per-case stats isolated.
fn load_once(dir: &Path, config: u64) -> Result<(LoadOutcome<String>, bool), StoreError> {
    let store = DurableStore::open_real(dir, config)?;
    let outcome = store.load_with("state", |b| Some(b.to_string()))?;
    Ok((outcome, store.stats().reconciles()))
}

/// Runs `case`, converting panics and unexpected outcomes to violations.
fn check(
    violations: &mut Vec<Violation>,
    input: String,
    dir: &Path,
    config: u64,
    expect: impl Fn(&LoadOutcome<String>) -> Option<String>,
) {
    match catch_unwind(AssertUnwindSafe(|| load_once(dir, config))) {
        Err(_) => violations.push(Violation {
            oracle: "durability",
            input,
            detail: "panic escaped the store reader".into(),
        }),
        Ok(Err(e)) => violations.push(Violation {
            oracle: "durability",
            input,
            detail: format!("store error instead of a classification: {e}"),
        }),
        Ok(Ok((outcome, reconciles))) => {
            if let Some(detail) = expect(&outcome) {
                violations.push(Violation {
                    oracle: "durability",
                    input,
                    detail,
                });
            }
            if !reconciles {
                violations.push(Violation {
                    oracle: "durability",
                    input: "ledger".into(),
                    detail: "durability counters do not reconcile after the load".into(),
                });
            }
        }
    }
}

/// Expectation: recovered the older generation's exact body.
fn expect_recovered(old_body: &str) -> impl Fn(&LoadOutcome<String>) -> Option<String> + '_ {
    move |outcome| match outcome {
        LoadOutcome::Recovered { value, .. } if value == old_body => None,
        LoadOutcome::Recovered { .. } => {
            Some("recovered a different body than the older generation held".into())
        }
        other => Some(format!(
            "expected recovery from the older generation, got {}",
            outcome_name(other)
        )),
    }
}

fn outcome_name(outcome: &LoadOutcome<String>) -> &'static str {
    match outcome {
        LoadOutcome::Missing => "Missing",
        LoadOutcome::Valid(_) => "Valid",
        LoadOutcome::Recovered { .. } => "Recovered",
        LoadOutcome::Stale { .. } => "Stale",
        LoadOutcome::Unrecoverable { .. } => "Unrecoverable",
    }
}

pub(crate) fn run_durability(seed: u64, params: &Params) -> (u64, Vec<Violation>) {
    let mut cases = 0u64;
    let mut violations = Vec::new();
    for index in 0..params.durability_bodies {
        cases += run_body(seed, index, &mut violations);
        cases += run_journaled_body(seed, index, &mut violations);
    }
    (cases, violations)
}

/// Frames appended to each generation of the journaled store.
const FRAMES: usize = 3;

/// One load of the journaled store: the value (base, then each frame
/// replayed), whether it was a recovery, and whether the ledger holds.
fn load_journaled(dir: &Path, config: u64) -> Result<(Option<Vec<String>>, bool, bool), String> {
    let store = DurableStore::open_real(dir, config).map_err(|e| e.to_string())?;
    let outcome = store
        .load_journal(
            "state",
            |base| Some(vec![base.to_string()]),
            |value, delta| {
                value.push(delta.to_string());
                true
            },
        )
        .map_err(|e| e.to_string())?;
    let reconciles = store.stats().reconciles();
    Ok(match outcome {
        LoadOutcome::Valid(value) => (Some(value), false, reconciles),
        LoadOutcome::Recovered { value, .. } => (Some(value), true, reconciles),
        _ => (None, false, reconciles),
    })
}

/// One seeded body over a base + journal store: g1 and g2 each a base
/// with [`FRAMES`] frames; every byte of g2 flipped, g2 cut at every
/// length.
fn run_journaled_body(seed: u64, index: usize, violations: &mut Vec<Violation>) -> u64 {
    let invocation = INVOCATION.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "squatphi-conformance-journal-{}-{seed}-{invocation}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = mix(seed ^ 0x10a7_f4a3 ^ index as u64);
    // value(g, n): generation g's base followed by its first n frames.
    let value = |gen: u64, frames: usize| -> Vec<String> {
        (0..=frames as u64)
            .map(|part| body_for(seed ^ 0x6a09_e667, index, gen * 16 + part))
            .collect()
    };
    let mut violate = |input: String, detail: String| {
        violations.push(Violation {
            oracle: "durability",
            input,
            detail,
        })
    };

    let setup = (|| -> Result<(Vec<u8>, usize), String> {
        let store = DurableStore::open_real(&dir, config).map_err(|e| e.to_string())?;
        let mut journal_at = 0;
        for gen in [1, 2] {
            let parts = value(gen, FRAMES);
            store.save("state", &parts[0]).map_err(|e| e.to_string())?;
            let path = dir.join(format!("state.g{gen}.ckpt"));
            journal_at = RealVfs.read(&path).map_err(|e| e.to_string())?.len();
            for frame in &parts[1..] {
                store
                    .append("state", gen, frame)
                    .map_err(|e| e.to_string())?;
            }
        }
        let g2 = RealVfs
            .read(&dir.join("state.g2.ckpt"))
            .map_err(|e| e.to_string())?;
        Ok((g2, journal_at))
    })();
    let (pristine, journal_at) = match setup {
        Ok(built) => built,
        Err(e) => {
            violate(
                format!("journal {index}: setup"),
                format!("could not build the base + journal store: {e}"),
            );
            let _ = std::fs::remove_dir_all(&dir);
            return 1;
        }
    };
    let g2_path = dir.join("state.g2.ckpt");
    // Whole g2 frames that end at or before byte `pos`.
    let frames_before = |pos: usize| -> usize {
        let mut end = journal_at;
        value(2, FRAMES)[1..]
            .iter()
            .take_while(|frame| {
                end += FRAME_HEADER_BYTES + frame.len();
                end <= pos
            })
            .count()
    };

    let mut cases = 0u64;
    let mut check = |input: String, expected: Vec<String>, may_recover: bool| {
        cases += 1;
        match catch_unwind(AssertUnwindSafe(|| load_journaled(&dir, config))) {
            Err(_) => violate(input, "panic escaped the journal reader".into()),
            Ok(Err(e)) => violate(
                input,
                format!("store error instead of a classification: {e}"),
            ),
            Ok(Ok((got, recovered, reconciles))) => {
                if got.as_ref() != Some(&expected) {
                    violate(
                        input.clone(),
                        format!(
                            "loaded {} parts, expected the base and exactly {} frame(s)",
                            got.map_or(0, |v| v.len()),
                            expected.len() - 1
                        ),
                    );
                }
                if recovered && !may_recover {
                    violate(
                        input.clone(),
                        "a torn journal tail was reported as a recovery".into(),
                    );
                }
                if !reconciles {
                    violate(
                        input,
                        "durability counters do not reconcile after the load".into(),
                    );
                }
            }
        }
    };

    check(
        format!("journal {index}: pristine"),
        value(2, FRAMES),
        false,
    );
    for pos in 0..pristine.len() {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 1u8 << (mix(seed ^ 0x51ed ^ pos as u64) % 8);
        RealVfs.write(&g2_path, &damaged).expect("inject bitflip");
        let expected = if pos < journal_at {
            value(1, FRAMES)
        } else {
            value(2, frames_before(pos))
        };
        check(format!("journal {index}: bitflip g2@{pos}"), expected, true);
    }
    for len in 0..pristine.len() {
        RealVfs
            .write(&g2_path, &pristine[..len])
            .expect("inject truncation");
        let (expected, in_base) = if len < journal_at {
            (value(1, FRAMES), true)
        } else {
            (value(2, frames_before(len)), false)
        };
        check(
            format!("journal {index}: torn g2 at {len}"),
            expected,
            in_base,
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    cases
}

/// One seeded body: builds the two-generation store, then sweeps damage.
fn run_body(seed: u64, index: usize, violations: &mut Vec<Violation>) -> u64 {
    let invocation = INVOCATION.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "squatphi-conformance-durability-{}-{seed}-{invocation}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = mix(seed ^ 0xd04a_b111 ^ index as u64);
    let old_body = body_for(seed, index, 1);
    let new_body = body_for(seed, index, 2);
    let mut cases = 0u64;

    let setup = (|| -> Result<(Vec<u8>, Vec<u8>), String> {
        let store = DurableStore::open_real(&dir, config).map_err(|e| e.to_string())?;
        store.save("state", &old_body).map_err(|e| e.to_string())?;
        store.save("state", &new_body).map_err(|e| e.to_string())?;
        let g1 = RealVfs
            .read(&dir.join("state.g1.ckpt"))
            .map_err(|e| e.to_string())?;
        let g2 = RealVfs
            .read(&dir.join("state.g2.ckpt"))
            .map_err(|e| e.to_string())?;
        Ok((g1, g2))
    })();
    let (pristine_g1, pristine_g2) = match setup {
        Ok(files) => files,
        Err(e) => {
            violations.push(Violation {
                oracle: "durability",
                input: format!("body {index}: setup"),
                detail: format!("could not build the two-generation store: {e}"),
            });
            let _ = std::fs::remove_dir_all(&dir);
            return 1;
        }
    };
    let g2_path = dir.join("state.g2.ckpt");
    let g1_path = dir.join("state.g1.ckpt");

    // Baseline: the pristine store loads the newest body.
    cases += 1;
    check(
        violations,
        format!("body {index}: pristine"),
        &dir,
        config,
        |outcome| match outcome {
            LoadOutcome::Valid(v) if v == &new_body => None,
            other => Some(format!(
                "pristine store did not load the newest body ({})",
                outcome_name(other)
            )),
        },
    );

    // Sweep 1 — flip one seeded bit at every byte of the newest
    // generation: the reader must classify the damage and fall back to
    // the older generation, byte-exactly.
    for pos in 0..pristine_g2.len() {
        cases += 1;
        let mut damaged = pristine_g2.clone();
        damaged[pos] ^= 1u8 << (mix(seed ^ pos as u64) % 8);
        RealVfs.write(&g2_path, &damaged).expect("inject bitflip");
        check(
            violations,
            format!("body {index}: bitflip g2@{pos}"),
            &dir,
            config,
            expect_recovered(&old_body),
        );
    }

    // Sweep 2 — truncate the newest generation at every length
    // (a torn tail of any size), same recovery contract.
    for len in 0..pristine_g2.len() {
        cases += 1;
        RealVfs
            .write(&g2_path, &pristine_g2[..len])
            .expect("inject truncation");
        check(
            violations,
            format!("body {index}: torn g2 at {len}"),
            &dir,
            config,
            expect_recovered(&old_body),
        );
    }
    RealVfs.write(&g2_path, &pristine_g2).expect("restore g2");

    // Sweep 3 — with the newest generation held damaged, damage the
    // older one at every byte: no generation verifies, so every load
    // must classify Unrecoverable (and never hand back a wrong body).
    let mut g2_damaged = pristine_g2.clone();
    g2_damaged[pristine_g2.len() / 2] ^= 0x10;
    RealVfs.write(&g2_path, &g2_damaged).expect("damage g2");
    for pos in 0..pristine_g1.len() {
        cases += 1;
        let mut damaged = pristine_g1.clone();
        damaged[pos] ^= 1u8 << (mix(seed ^ 0x9e37 ^ pos as u64) % 8);
        RealVfs.write(&g1_path, &damaged).expect("inject bitflip");
        check(
            violations,
            format!("body {index}: bitflip g1@{pos} with g2 damaged"),
            &dir,
            config,
            |outcome| match outcome {
                LoadOutcome::Unrecoverable { .. } => None,
                other => Some(format!(
                    "both generations damaged but load resolved {}",
                    outcome_name(other)
                )),
            },
        );
    }
    RealVfs.write(&g1_path, &pristine_g1).expect("restore g1");
    RealVfs.write(&g2_path, &pristine_g2).expect("restore g2");

    // Config mismatch on the intact store: Stale, not damage.
    cases += 1;
    check(
        violations,
        format!("body {index}: stale config"),
        &dir,
        !config,
        |outcome| match outcome {
            LoadOutcome::Stale { .. } => None,
            other => Some(format!(
                "config mismatch classified {} instead of Stale",
                outcome_name(other)
            )),
        },
    );

    // Empty store: an honest cold start.
    cases += 1;
    RealVfs.remove(&g1_path).expect("clear g1");
    RealVfs.remove(&g2_path).expect("clear g2");
    check(
        violations,
        format!("body {index}: empty store"),
        &dir,
        config,
        |outcome| match outcome {
            LoadOutcome::Missing => None,
            other => Some(format!(
                "empty store classified {} instead of Missing",
                outcome_name(other)
            )),
        },
    );

    let _ = std::fs::remove_dir_all(&dir);
    cases
}
