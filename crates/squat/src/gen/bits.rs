//! Bit-squatting generator (paper §3.1, after Nikiforakis et al.):
//! domains one single-bit memory corruption away from the brand.

/// All labels reachable from `label` by flipping exactly one bit of one
/// byte, keeping only results that are valid DNS label characters
/// (`a-z`, `0-9`, `-`, no edge hyphens), generated lazily in (byte, bit)
/// order. Each output differs from `label` in exactly its own byte, so
/// there are no duplicates to skip.
///
/// ```
/// use squatphi_squat::gen::bits_candidates;
/// assert!(bits_candidates("facebook").any(|c| c == "facebnok")); // Table 1 example
/// ```
pub fn bits_candidates(label: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = label.as_bytes();
    bytes.iter().enumerate().flat_map(move |(i, &byte)| {
        (0..8u8).filter_map(move |bit| {
            let flipped = byte ^ (1 << bit);
            let valid = flipped.is_ascii_lowercase()
                || flipped.is_ascii_digit()
                || (flipped == b'-' && i != 0 && i != bytes.len() - 1);
            if !valid {
                return None;
            }
            let mut s = bytes.to_vec();
            s[i] = flipped;
            Some(String::from_utf8(s).expect("ascii stays utf8"))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi_domain::distance::is_one_bit_flip;

    fn bits_list(label: &str) -> Vec<String> {
        bits_candidates(label).collect()
    }

    #[test]
    fn paper_examples_present() {
        assert!(bits_list("facebook").contains(&"facebnok".to_string()));
        assert!(bits_list("google").contains(&"goofle".to_string()));
        // facecook: 'b'(62) ^ 'c'(63) = 0x01 — one bit (Table 10).
        assert!(bits_list("facebook").contains(&"facecook".to_string()));
    }

    #[test]
    fn every_candidate_is_one_bit_away() {
        for c in bits_candidates("paypal") {
            assert!(is_one_bit_flip("paypal", &c), "{c} not one bit from paypal");
        }
    }

    #[test]
    fn no_identity_and_no_duplicates() {
        let cands = bits_list("uber");
        assert!(!cands.contains(&"uber".to_string()));
        let mut sorted = cands.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), cands.len());
    }

    #[test]
    fn edge_hyphens_rejected() {
        // 'm' ^ 0x40 = '-', so flipping bit 6 of a leading 'm' would give
        // a leading hyphen — must be filtered.
        for c in bits_candidates("mm") {
            assert!(!c.starts_with('-') && !c.ends_with('-'));
        }
    }

    #[test]
    fn count_is_bounded_by_8n() {
        let label = "facebook";
        assert!(bits_candidates(label).count() <= 8 * label.len());
    }
}
