//! # squatphi-prop — property tests that shrink
//!
//! [`check`] runs a property over `cases` inputs that a generator closure
//! draws from a [`Gen`]. The stream is seeded from the property's name
//! (FNV-1a into splitmix64) and runs on across cases, so every run sees
//! the same inputs and a failure reproduces.
//!
//! Every draw's result, already reduced to its range, is recorded on a
//! tape. When a case fails — a `prop_assert!` returns `Err`, or the
//! property panics — the tape is shrunk and replayed: [`shrink::minimize`]
//! drops runs of draws, then each draw is bisected toward 0. A replay
//! past the end of the tape reads 0, and a value above a draw's range
//! is clamped to it, so every shrunk tape still decodes to an input. The
//! panic names the case, the original input and the shrunk one.
//!
//! [`shrink`] is also the conformance oracles' minimizer, so the
//! workspace has one.

use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod shrink;

/// Non-control chars [`Gen::text`] draws beyond printable ASCII: enough
/// unicode spread to exercise the punycode, IDNA and tokenizer paths.
const NON_ASCII_POOL: &[char] = &['à', 'é', 'ö', 'ß', 'κ', 'о', 'г', 'ž', '中', '✓', '🦀'];

/// The draw source a generator closure reads, and the tape it leaves.
pub struct Gen {
    state: u64,
    /// Draws to replay instead of the stream, when shrinking.
    replay: Option<Vec<u64>>,
    tape: Vec<u64>,
}

impl Gen {
    /// The stream for the property named `name`.
    fn for_test(name: &str) -> Gen {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Gen {
            state: h ^ 0x9E3779B97F4A7C15,
            replay: None,
            tape: Vec::new(),
        }
    }

    fn replaying(tape: &[u64]) -> Gen {
        Gen {
            state: 0,
            replay: Some(tape.to_vec()),
            tape: Vec::new(),
        }
    }

    /// One draw: `reduce` of the next splitmix64 word, or the tape's next
    /// value clamped to `max` (0 past its end). Either way it is recorded.
    fn draw(&mut self, max: u64, reduce: impl FnOnce(u64) -> u64) -> u64 {
        let v = match &self.replay {
            Some(tape) => tape.get(self.tape.len()).map_or(0, |&v| v.min(max)),
            None => {
                self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = self.state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                reduce(z ^ (z >> 31))
            }
        };
        self.tape.push(v);
        v
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.draw(u64::MAX, |v| v)
    }

    /// Any `u32` (one draw, as `below(1 << 32)`).
    pub fn u32(&mut self) -> u32 {
        self.below(1 << 32) as u32
    }

    /// Any `u8` (one draw, as `below(1 << 8)`).
    pub fn u8(&mut self) -> u8 {
        self.below(1 << 8) as u8
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw(n - 1, |v| v % n)
    }

    /// Uniform in `range`, which must be non-empty.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }

    /// Uniform in `range`, at 53-bit resolution.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        let unit = self.draw((1 << 53) - 1, |v| v >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }

    /// One of `items` (a regex alternation `(com|net)`).
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// One char of `class`, written as a regex class body: `a-z0-9-`
    /// (a `-` between two chars is a range, anywhere else a literal).
    pub fn char(&mut self, class: &str) -> char {
        self.pick(&class_chars(class))
    }

    /// A string of `len` chars of `class` (the regex `[class]{m,n}`).
    pub fn string(&mut self, class: &str, len: RangeInclusive<usize>) -> String {
        let chars = class_chars(class);
        let n = self.repeat_count(len);
        (0..n).map(|_| self.pick(&chars)).collect()
    }

    /// A string of `len` non-control chars (the regex `\PC{m,n}`): mostly
    /// printable ASCII, one in four from a small non-ASCII pool.
    pub fn text(&mut self, len: RangeInclusive<usize>) -> String {
        let n = self.repeat_count(len);
        (0..n)
            .map(|_| {
                if self.below(4) == 0 {
                    self.pick(NON_ASCII_POOL)
                } else {
                    (0x20 + self.below(0x5F) as u8) as char
                }
            })
            .collect()
    }

    /// A vec of `f`'s values, its length drawn from `len` (non-empty).
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len.start as u64..len.end as u64) as usize;
        (0..n).map(|_| f(self)).collect()
    }

    fn repeat_count(&mut self, len: RangeInclusive<usize>) -> usize {
        self.range(*len.start() as u64..*len.end() as u64 + 1) as usize
    }
}

fn class_chars(class: &str) -> Vec<char> {
    let c: Vec<char> = class.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        if c.get(i + 1) == Some(&'-') && i + 2 < c.len() {
            out.extend(c[i]..=c[i + 2]);
            i += 3;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

thread_local! {
    /// The message (with its location) of the last panic caught on this
    /// thread while a property ran.
    static CAUGHT: RefCell<Option<String>> = const { RefCell::new(None) };
    static IN_PROPERTY: Cell<bool> = const { Cell::new(false) };
}

/// Runs one case; a panic becomes an `Err` carrying its message, and is
/// not printed (shrinking may replay it hundreds of times).
fn run<T>(prop: &impl Fn(T) -> Result<(), String>, value: T) -> Result<(), String> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_PROPERTY.with(Cell::get) {
                CAUGHT.with(|c| *c.borrow_mut() = Some(info.to_string()));
            } else {
                previous(info);
            }
        }));
    });
    CAUGHT.with(|c| c.borrow_mut().take());
    IN_PROPERTY.with(|p| p.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(value)));
    IN_PROPERTY.with(|p| p.set(false));
    outcome.unwrap_or_else(|payload| {
        let message = CAUGHT.with(|c| c.borrow_mut().take()).unwrap_or_else(|| {
            let text = payload.downcast_ref::<&str>().copied();
            let owned = payload.downcast_ref::<String>().map(String::as_str);
            text.or(owned).unwrap_or("non-string payload").to_string()
        });
        Err(message)
    })
}

/// Runs `prop` on `cases` inputs drawn by `gen` from the stream named
/// `name`. On the first failure it shrinks the input and panics with the
/// case, the original input and the shrunk one.
pub fn check<T: Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut Gen) -> T,
    prop: impl Fn(T) -> Result<(), String>,
) {
    let mut g = Gen::for_test(name);
    for case in 1..=cases {
        g.tape.clear();
        let value = gen(&mut g);
        let Err(why) = run(&prop, value) else {
            continue;
        };
        let replay = |tape: &[u64]| gen(&mut Gen::replaying(tape));
        let shrunk = shrink_tape(&g.tape, |tape| run(&prop, replay(tape)).is_err());
        let shrunk_why = run(&prop, replay(&shrunk)).err().unwrap_or_default();
        panic!(
            "property `{name}` failed at case {case}/{cases}: {why}\n\
             input: {:?}\n\
             shrunk ({} -> {} draws): {:?}: {shrunk_why}",
            replay(&g.tape),
            g.tape.len(),
            shrunk.len(),
            replay(&shrunk),
        );
    }
}

/// Shrinks a failing tape: ddmin over its draws, then each draw bisected
/// toward 0, until a round changes nothing.
fn shrink_tape(tape: &[u64], mut fails: impl FnMut(&[u64]) -> bool) -> Vec<u64> {
    let mut tape = tape.to_vec();
    loop {
        let before = tape.clone();
        tape = shrink::minimize(&tape, &mut fails);
        for i in 0..tape.len() {
            // Invariant: the tape fails with `hi` at `i`.
            let (mut lo, mut hi) = (0, tape[i]);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                tape[i] = mid;
                if fails(&tape) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            tape[i] = hi;
        }
        if tape == before {
            return tape;
        }
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match ($left, $right) {
            (left, right) => {
                $crate::prop_assert!(left == right, "assertion failed: {:?} != {:?}", left, right)
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        $crate::prop_assert!($left == $right, $($fmt)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<T>(name: &str, n: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let mut g = Gen::for_test(name);
        (0..n).map(|_| f(&mut g)).collect()
    }

    /// The panic message of a failing `check`.
    fn failure(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the property must fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn class_with_repeat_respects_bounds_and_alphabet() {
        for s in sample("class", 200, |g| g.string("a-z0-9-", 0..=32)) {
            assert!(s.len() <= 32);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn unicode_class_literals_survive() {
        let joined = sample("unicode", 300, |g| g.string("a-zàéöκогž", 1..=16)).join("");
        assert!(!joined.is_ascii(), "unicode literals never drawn");
        assert!(joined
            .chars()
            .all(|c| "abcdefghijklmnopqrstuvwxyzàéöκогž".contains(c)));
    }

    #[test]
    fn alternation_picks_whole_alternatives() {
        let alts = ["com", "net", "org", "tk", "audi", "com.ua"];
        let picked = sample("alternation", 200, |g| g.pick(&alts));
        for s in &alts {
            assert!(picked.contains(s), "{s} never picked");
        }
    }

    #[test]
    fn non_control_class_excludes_controls() {
        for s in sample("text", 200, |g| g.text(0..=64)) {
            assert!(s.chars().count() <= 64);
            assert!(s.chars().all(|c| !c.is_control()), "control char in {s:?}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let draw = |g: &mut Gen| (g.string("a-f", 8..=8), g.u64(), g.f64(0.0..8.0));
        assert_eq!(sample("a", 50, draw), sample("a", 50, draw));
        assert_ne!(sample("a", 50, draw), sample("b", 50, draw));
    }

    #[test]
    fn replay_clamps_and_pads_the_tape() {
        let mut g = Gen::replaying(&[7, u64::MAX]);
        assert_eq!((g.below(100), g.below(10), g.u64()), (7, 9, 0));
        assert_eq!(g.tape, [7, 9, 0]);
    }

    #[test]
    fn passing_property_runs_every_case() {
        let runs = Cell::new(0);
        check(
            "passing",
            64,
            |g| g.below(10),
            |n| {
                runs.set(runs.get() + 1);
                prop_assert!(n < 10);
                Ok(())
            },
        );
        assert_eq!(runs.get(), 64);
    }

    #[test]
    fn failing_vec_property_shrinks_to_one_boundary_element() {
        let gen = |g: &mut Gen| g.vec(0..100, Gen::u64);
        let msg = failure(|| {
            check("planted_vec", 256, gen, |v| {
                for &x in &v {
                    prop_assert!(x < 1000, "{x} >= 1000");
                }
                Ok(())
            })
        });
        assert!(
            msg.contains("property `planted_vec` failed at case"),
            "{msg}"
        );
        assert!(msg.contains("): [1000]: 1000 >= 1000"), "{msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let gen = |g: &mut Gen| g.string("a-z", 0..=20);
        let msg = failure(|| {
            check("planted_panic", 256, gen, |s| {
                assert!(!s.contains('q'), "found a q");
                Ok(())
            })
        });
        assert!(msg.contains("): \"q\": panicked at"), "{msg}");
        assert!(msg.contains("found a q"), "{msg}");
    }
}
