//! The legacy string-probing detector, preserved verbatim as the
//! **reference oracle** for the fingerprint-indexed [`SquatDetector`].
//!
//! This is the exact pre-rebuild implementation: every probe builds (or
//! borrows) a string and looks it up in a `HashMap<String, _>` — ~39
//! SipHash string hashes per record, the cost the fingerprint index was
//! built to remove. No production code uses it; it exists so the
//! `scan-diff` oracle and the matcher property tests can pin the new
//! matcher's answers (and its `probes` / `allocations_avoided`
//! accounting) byte-identical to the old ones.
//!
//! Behavioral contract: for every parseable domain,
//! `LegacyDetector::classify == SquatDetector::classify`, including the
//! brand id and squat type, and both detectors report identical `probes`
//! and `allocations_avoided` counters. `deep_probes` differs by design:
//! every legacy probe hits a real hash map, so here it always equals
//! `probes`, while the fingerprint detector only counts probes that get
//! past its bit filter.
//!
//! [`SquatDetector`]: squatphi_squat::SquatDetector

use squatphi_domain::{idna, ConfusableTable, DomainName};
use squatphi_squat::{BrandId, BrandRegistry, ClassifyStats, SquatMatch, SquatType};
use std::collections::HashMap;

/// DNS labels are at most 63 octets ([`DomainName::parse`] rejects longer
/// ones), so every ASCII probe string fits in this stack scratch.
const MAX_LABEL: usize = 63;

/// The pre-fingerprint-index detector: string-keyed hash probing.
#[derive(Debug)]
pub struct LegacyDetector {
    /// brand label -> id.
    labels: HashMap<String, BrandId>,
    /// canonical confusable fold of each brand label -> id (first brand
    /// wins fold collisions, mirroring the pregenerated table).
    canon: HashMap<String, BrandId>,
    /// brand label per id (dense index).
    brand_labels: Vec<String>,
    /// brand suffix per id (to distinguish wrongTLD from the brand itself).
    suffixes: Vec<String>,
    /// One-char-deletion variants of every brand label:
    /// deleted-string -> (brand, deleted position).
    deletions: HashMap<String, Vec<(BrandId, usize)>>,
    /// Minimum / maximum brand label length (quick length gate).
    min_len: usize,
    max_len: usize,
    confusables: ConfusableTable,
    /// Combo affix vocabulary for short (< 4 char) brand affixes.
    combo_words: std::collections::HashSet<&'static str>,
}

impl LegacyDetector {
    /// Builds the detector index from a registry.
    pub fn new(registry: &BrandRegistry) -> Self {
        let mut labels = HashMap::with_capacity(registry.len());
        let mut canon = HashMap::with_capacity(registry.len());
        let mut brand_labels = Vec::with_capacity(registry.len());
        let mut suffixes = Vec::with_capacity(registry.len());
        let mut deletions: HashMap<String, Vec<(BrandId, usize)>> = HashMap::new();
        let (mut min_len, mut max_len) = (usize::MAX, 0);
        for b in registry.brands() {
            debug_assert_eq!(b.id, brand_labels.len(), "registry ids must be dense");
            labels.insert(b.label.clone(), b.id);
            let key: String = b
                .label
                .bytes()
                .map(|c| ConfusableTable::canonical_fold_byte(c) as char)
                .collect();
            canon.entry(key).or_insert(b.id);
            brand_labels.push(b.label.clone());
            suffixes.push(b.domain.suffix().to_string());
            min_len = min_len.min(b.label.len());
            max_len = max_len.max(b.label.len());
            for i in 0..b.label.len() {
                let mut d = String::with_capacity(b.label.len() - 1);
                d.push_str(&b.label[..i]);
                d.push_str(&b.label[i + 1..]);
                deletions.entry(d).or_default().push((b.id, i));
            }
        }
        LegacyDetector {
            labels,
            canon,
            brand_labels,
            suffixes,
            deletions,
            min_len,
            max_len,
            confusables: ConfusableTable::new(),
            combo_words: squatphi_squat::words::COMBO_WORDS.iter().copied().collect(),
        }
    }

    /// Classifies a domain (see [`SquatDetector::classify`]).
    ///
    /// [`SquatDetector::classify`]: squatphi_squat::SquatDetector::classify
    pub fn classify(&self, domain: &DomainName) -> Option<SquatMatch> {
        let mut stats = ClassifyStats::default();
        self.classify_with_stats(domain, &mut stats)
    }

    /// [`classify`](Self::classify) with probe/allocation accounting.
    pub fn classify_with_stats(
        &self,
        domain: &DomainName,
        stats: &mut ClassifyStats,
    ) -> Option<SquatMatch> {
        let label = domain.core_label();
        let suffix = domain.suffix();

        // Exact brand label: either the brand itself or wrongTLD.
        stats.probes += 1;
        stats.deep_probes += 1;
        if let Some(&id) = self.labels.get(label) {
            if self.suffixes[id] == suffix {
                return None; // the genuine brand domain
            }
            return Some(SquatMatch {
                brand: id,
                squat_type: SquatType::WrongTld,
            });
        }

        // Quick length gate for the per-character probes below (combo is
        // exempt — it can be much longer than any brand).
        let in_len_range = label.len() + 1 >= self.min_len && label.len() <= self.max_len + 1;

        // Punycode expands the wire form well beyond the display length, so
        // IDN labels bypass the gate; sequence folds (`rn`→`m`) shrink by
        // one, which the +1 slack already covers.
        if in_len_range || label.starts_with(idna::ACE_PREFIX) {
            if let Some(m) = self.check_homograph(label, stats) {
                return Some(m);
            }
        }
        if in_len_range {
            if let Some(m) = self.check_edit_distance(label, stats) {
                return Some(m);
            }
        }
        self.check_combo(label, stats)
    }

    /// Homograph: skeleton fold, canonical fold, sequence folds.
    fn check_homograph(&self, label: &str, stats: &mut ClassifyStats) -> Option<SquatMatch> {
        let mut scratch = [0u8; MAX_LABEL + 1];
        if let Some(rest) = label.strip_prefix(idna::ACE_PREFIX) {
            // IDN: decode, fold, look up. Decoding allocates by nature, so
            // xn-- labels are exempt from the zero-alloc guarantee.
            let decoded = squatphi_domain::punycode::decode(rest).ok()?;
            let folded = self.confusables.skeleton(&decoded);
            if folded != label {
                stats.probes += 1;
                stats.deep_probes += 1;
                if let Some(&id) = self.labels.get(folded.as_str()) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Homograph,
                    });
                }
            }
            if folded.is_ascii() {
                // Reuse the fold's own buffer for the canonical probe.
                let mut bytes = folded.into_bytes();
                if let Some(m) = self.canonical_probe(&mut bytes, stats) {
                    return Some(m);
                }
            }
        } else if label.is_ascii() {
            // Hot path: fold into the stack scratch — for ASCII the skeleton
            // is the byte-wise `ascii_fold_byte` map, no allocation needed.
            debug_assert!(label.len() <= MAX_LABEL);
            let n = label.len();
            for (dst, &src) in scratch[..n].iter_mut().zip(label.as_bytes()) {
                *dst = ConfusableTable::ascii_fold_byte(src);
            }
            stats.allocations_avoided += 1;
            if &scratch[..n] != label.as_bytes() {
                stats.probes += 1;
                stats.deep_probes += 1;
                let folded = std::str::from_utf8(&scratch[..n]).expect("ascii");
                if let Some(&id) = self.labels.get(folded) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Homograph,
                    });
                }
            }
            let (canon_buf, _) = scratch.split_at_mut(n);
            if let Some(m) = self.canonical_probe(canon_buf, stats) {
                return Some(m);
            }
        } else {
            // Non-ASCII Unicode label (already-decoded display form): fold
            // via the full confusable table, which allocates.
            let folded = self.confusables.skeleton(label);
            if folded != label {
                stats.probes += 1;
                stats.deep_probes += 1;
                if let Some(&id) = self.labels.get(folded.as_str()) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Homograph,
                    });
                }
            }
            if folded.is_ascii() {
                let mut bytes = folded.into_bytes();
                if let Some(m) = self.canonical_probe(&mut bytes, stats) {
                    return Some(m);
                }
            }
        }
        // Sequence folds on ASCII labels: rn -> m, vv -> w, cl -> d, …
        // built in the scratch (the label fits by the DNS length limit).
        if label.is_ascii() {
            const SEQ_FOLDS: &[(&str, u8)] = &[
                ("rn", b'm'),
                ("nn", b'm'),
                ("vv", b'w'),
                ("cl", b'd'),
                ("lc", b'k'),
                ("lo", b'b'),
            ];
            let bytes = label.as_bytes();
            for &(seq, target) in SEQ_FOLDS {
                // Every occurrence must be probed, not just the first.
                let mut start = 0;
                while let Some(off) = label[start..].find(seq) {
                    let pos = start + off;
                    let n = bytes.len() - 1;
                    scratch[..pos].copy_from_slice(&bytes[..pos]);
                    scratch[pos] = target;
                    scratch[pos + 1..n].copy_from_slice(&bytes[pos + 2..]);
                    stats.allocations_avoided += 1;
                    stats.probes += 1;
                    stats.deep_probes += 1;
                    let s = std::str::from_utf8(&scratch[..n]).expect("ascii");
                    if let Some(&id) = self.labels.get(s) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Homograph,
                        });
                    }
                    start = pos + 1;
                }
            }
        }
        None
    }

    /// Canonical confusable probe over already skeleton-folded bytes.
    fn canonical_probe(&self, folded: &mut [u8], stats: &mut ClassifyStats) -> Option<SquatMatch> {
        for b in folded.iter_mut() {
            *b = ConfusableTable::canonical_fold_byte(*b);
        }
        stats.allocations_avoided += 1;
        stats.probes += 1;
        stats.deep_probes += 1;
        let key = std::str::from_utf8(folded).expect("ascii");
        self.canon.get(key).map(|&id| SquatMatch {
            brand: id,
            squat_type: SquatType::Homograph,
        })
    }

    /// Bits / typo via symmetric deletion probing.
    fn check_edit_distance(&self, label: &str, stats: &mut ClassifyStats) -> Option<SquatMatch> {
        if !label.is_ascii() || label.is_empty() {
            return None;
        }
        debug_assert!(label.len() <= MAX_LABEL);
        let bytes = label.as_bytes();
        let mut scratch = [0u8; MAX_LABEL + 1];
        let mut insertion_hit: Option<BrandId> = None;

        // (a) + (c): delete char i once; probe the deletion index for a
        // same-position brand deletion (substitution at i → bits if the two
        // bytes differ by one bit) and the label index for an exact brand
        // (insertion of i).
        for i in 0..bytes.len() {
            let n = bytes.len() - 1;
            scratch[..i].copy_from_slice(&bytes[..i]);
            scratch[i..n].copy_from_slice(&bytes[i + 1..]);
            stats.allocations_avoided += 2; // one String per step, twice
            let probe = std::str::from_utf8(&scratch[..n]).expect("ascii");
            stats.probes += 1;
            stats.deep_probes += 1;
            if let Some(hits) = self.deletions.get(probe) {
                for &(id, pos) in hits {
                    // Keys of equal length imply brand.len() == label.len(),
                    // so only the deleted position needs to match.
                    if pos == i {
                        let brand = self.brand_labels[id].as_bytes();
                        debug_assert_eq!(brand.len(), label.len());
                        if (bytes[i] ^ brand[i]).count_ones() == 1 {
                            return Some(SquatMatch {
                                brand: id,
                                squat_type: SquatType::Bits,
                            });
                        }
                    }
                }
            }
            if insertion_hit.is_none() {
                stats.probes += 1;
                stats.deep_probes += 1;
                insertion_hit = self.labels.get(probe).copied();
            }
        }
        // (b) Adjacent swap: transpose each pair in place and look up.
        scratch[..bytes.len()].copy_from_slice(bytes);
        for i in 0..bytes.len().saturating_sub(1) {
            if bytes[i] == bytes[i + 1] {
                continue;
            }
            scratch.swap(i, i + 1);
            stats.allocations_avoided += 1;
            stats.probes += 1;
            stats.deep_probes += 1;
            let s = std::str::from_utf8(&scratch[..bytes.len()]).expect("ascii");
            if let Some(&id) = self.labels.get(s) {
                return Some(SquatMatch {
                    brand: id,
                    squat_type: SquatType::Typo,
                });
            }
            scratch.swap(i, i + 1);
        }
        // (c) Insertion (label is brand + 1 char), found during the merged
        //     deletion pass above; swap outranks it, so it returns here.
        if let Some(id) = insertion_hit {
            return Some(SquatMatch {
                brand: id,
                squat_type: SquatType::Typo,
            });
        }
        // (d) Omission (label is brand - 1 char): the label appears in the
        //     brand deletion index.
        stats.probes += 1;
        stats.deep_probes += 1;
        if let Some(hits) = self.deletions.get(label) {
            if let Some(&(id, _)) = hits.first() {
                return Some(SquatMatch {
                    brand: id,
                    squat_type: SquatType::Typo,
                });
            }
        }
        None
    }

    /// Combo: hyphen-separated tokens containing the brand.
    fn check_combo(&self, label: &str, stats: &mut ClassifyStats) -> Option<SquatMatch> {
        if !label.contains('-') || !label.is_ascii() {
            return None;
        }
        // Pass 1: exact token match, all tokens.
        for token in label.split('-') {
            if token.len() < 2 {
                continue;
            }
            stats.probes += 1;
            stats.deep_probes += 1;
            if let Some(&id) = self.labels.get(token) {
                return Some(SquatMatch {
                    brand: id,
                    squat_type: SquatType::Combo,
                });
            }
        }
        // Pass 2: token starts or ends with a brand label. Affixes >= 4
        // chars match unconditionally; shorter brand affixes are accepted
        // only when the rest of the token is a known combo word.
        for token in label.split('-') {
            if token.len() < 2 {
                continue;
            }
            for cut in (4..token.len()).rev() {
                stats.probes += 2;
                stats.deep_probes += 2;
                if let Some(&id) = self.labels.get(&token[..cut]) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Combo,
                    });
                }
                if let Some(&id) = self.labels.get(&token[token.len() - cut..]) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Combo,
                    });
                }
            }
            for cut in (2..token.len().min(4)).rev() {
                stats.probes += 2;
                stats.deep_probes += 2;
                if let Some(&id) = self.labels.get(&token[..cut]) {
                    if self.combo_words.contains(&token[cut..]) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Combo,
                        });
                    }
                }
                if let Some(&id) = self.labels.get(&token[token.len() - cut..]) {
                    if self.combo_words.contains(&token[..token.len() - cut]) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Combo,
                        });
                    }
                }
            }
        }
        None
    }

    /// The label of brand `id` (dense `Vec` index).
    pub fn brand_label_of(&self, id: BrandId) -> &str {
        &self.brand_labels[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(det: &LegacyDetector, s: &str) -> Option<SquatType> {
        det.classify(&DomainName::parse(s).unwrap())
            .map(|m| m.squat_type)
    }

    #[test]
    fn table1_examples_classified() {
        let reg = BrandRegistry::with_size(30);
        let det = LegacyDetector::new(&reg);
        assert_eq!(classify(&det, "faceb00k.pw"), Some(SquatType::Homograph));
        assert_eq!(classify(&det, "facebnok.tk"), Some(SquatType::Bits));
        assert_eq!(classify(&det, "fcaebook.org"), Some(SquatType::Typo));
        assert_eq!(classify(&det, "facebook-story.de"), Some(SquatType::Combo));
        assert_eq!(classify(&det, "facebook.audi"), Some(SquatType::WrongTld));
        assert_eq!(classify(&det, "facebook.com"), None);
        assert_eq!(classify(&det, "winterpillow.net"), None);
    }

    #[test]
    fn legacy_deep_probes_equal_probes() {
        let reg = BrandRegistry::with_size(30);
        let det = LegacyDetector::new(&reg);
        let mut stats = ClassifyStats::default();
        let d = DomainName::parse("winterpillow.net").unwrap();
        let _ = det.classify_with_stats(&d, &mut stats);
        assert_eq!(stats.probes, stats.deep_probes);
    }
}
