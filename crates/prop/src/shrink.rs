//! Greedy delta-debugging minimizers for violating inputs.
//!
//! ddmin-style: try removing progressively smaller chunks while the
//! caller's predicate still reports a failure. The predicate sees every
//! candidate, so it must be a *total* check (return `false` for inputs
//! that no longer parse, not panic). A call budget bounds the worst case
//! so a pathological predicate can't hang the harness.

/// Upper bound on predicate evaluations per minimization.
const CALL_BUDGET: usize = 4000;

/// Minimizes a string: returns the smallest found input for which
/// `still_fails` holds. `input` itself must fail; it is returned unchanged
/// if no smaller failing input is found.
pub fn minimize_str(input: &str, mut still_fails: impl FnMut(&str) -> bool) -> String {
    let chars: Vec<char> = input.chars().collect();
    let out = minimize(&chars, |cand| {
        let s: String = cand.iter().collect();
        still_fails(&s)
    });
    out.into_iter().collect()
}

/// Minimizes a sequence (bytes, chars, a generator's draws) under
/// `still_fails`, with the same contract as [`minimize_str`].
pub fn minimize<T: Clone>(input: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = input.to_vec();
    let mut calls = 0usize;
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progress = false;
        let mut i = 0;
        while i < cur.len() && calls < CALL_BUDGET {
            let end = (i + chunk).min(cur.len());
            if end - i == cur.len() {
                // Never propose the empty input.
                break;
            }
            let mut cand = cur.clone();
            cand.drain(i..end);
            calls += 1;
            if !cand.is_empty() && still_fails(&cand) {
                cur = cand;
                progress = true;
                // Retry the same offset: the next chunk slid into place.
            } else {
                i = end;
            }
        }
        if calls >= CALL_BUDGET {
            break;
        }
        if !progress {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_failing_core() {
        // Failure: contains the byte sequence "xy".
        let input = "aaaaaaaaaaaaaaaaxybbbbbbbbbbbbbbbb";
        let out = minimize_str(input, |s| s.contains("xy"));
        assert_eq!(out, "xy");
    }

    #[test]
    fn returns_input_when_nothing_smaller_fails() {
        let out = minimize_str("ab", |s| s == "ab");
        assert_eq!(out, "ab");
    }

    #[test]
    fn never_proposes_empty() {
        // Predicate that "fails" on everything: the minimizer must still
        // return a non-empty input.
        let out = minimize(&[1, 2, 3, 4], |_| true);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn bytes_shrink_like_strings() {
        let mut input = vec![0u8; 64];
        input[40] = 0xC0;
        let out = minimize(&input, |b| b.contains(&0xC0));
        assert_eq!(out, vec![0xC0]);
    }

    #[test]
    fn terminates_under_the_call_budget() {
        let input = vec![7u8; 10_000];
        let mut calls = 0usize;
        let _ = minimize(&input, |_| {
            calls += 1;
            true
        });
        assert!(calls <= CALL_BUDGET);
    }
}
