//! The reverse direction: classify an arbitrary DNS name against the brand
//! registry (paper §3.1 "Domain Squatting Detection Results").
//!
//! The scan must process hundreds of millions of records, so the detector
//! avoids the naive "generate every candidate for every brand and hash
//! them" approach for the edit-distance types and instead works per
//! record in ~O(len) *fingerprint* probes over a unified index compiled
//! once in [`SquatDetector::new`]:
//!
//! * **wrongTLD** — exact label fingerprint lookup, suffix differs;
//! * **homograph** — confusable-fold the label (IDN labels are punycode-
//!   decoded first), then exact lookup; multi-char sequences (`rn`→`m`)
//!   are folded by targeted replacement;
//! * **bits** / **typo** — symmetric-deletion probing: one-character
//!   deletions of the label are matched against precomputed one-character
//!   deletions of every brand label, which recognizes substitution
//!   (bits vs nothing), omission, insertion and adjacent swap;
//! * **combo** — hyphen tokenization with prefix/suffix probes.
//!
//! Types are checked in a fixed precedence so the five categories stay
//! orthogonal (a label matching several rules gets exactly one type):
//! wrongTLD → homograph → bits → typo → combo.
//!
//! # The single-pass fingerprint engine
//!
//! The previous implementation (preserved verbatim as the conformance
//! crate's `legacy::LegacyDetector`) looked every probe
//! string up in a `HashMap<String, _>`: ~39 SipHash string hashes per
//! record, ~2 µs, which pinned the snapshot scan near 550k records/sec.
//! This detector makes one pass over the label to build its rolling
//! prefix fingerprints (`index::LabelHashes`); after that every probe
//! variant — each one-char deletion, each adjacent swap, each sequence
//! fold, each combo affix — is O(1) arithmetic, filtered through a bitset
//! (`index::FpTable`) so probes that cannot match cost a single L1
//! load. Fingerprint hits are verified against the stored key bytes, so
//! hash collisions cost a comparison but can never change an answer: the
//! output is byte-identical to the legacy detector's, pinned by the
//! `scan-diff` conformance oracle and the matcher proptests.
//!
//! # Allocation discipline
//!
//! `classify` is the scan hot path. For ASCII labels it performs **zero
//! heap allocations**: folds are built in a `[u8; 64]` stack buffer — DNS
//! labels are at most 63 octets, which [`DomainName::parse`] enforces —
//! and probe variants are never materialized at all unless a fingerprint
//! passes the filter and needs byte verification. IDN (`xn--`) labels are
//! exempt: punycode decoding inherently allocates, and those labels are a
//! vanishing fraction of a zone file. [`ClassifyStats`] counts the
//! logical probes, the probes that got past the filter (`deep_probes`)
//! and the allocations avoided relative to the original
//! `String`-per-probe implementation; the probe and allocation counters
//! are maintained at exactly the legacy counting sites, so they stay
//! byte-comparable across the rebuild.

use crate::brand::{BrandId, BrandRegistry};
use crate::index::{fp, fp_push, Filter, FpTable, LabelHashes};
use crate::SquatType;
use squatphi_domain::{idna, ConfusableTable, DomainName};

/// DNS labels are at most 63 octets ([`DomainName::parse`] rejects longer
/// ones), so every ASCII probe string fits in this stack scratch.
const MAX_LABEL: usize = 63;

/// A positive detection: which brand is being squatted and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquatMatch {
    /// The impersonated brand.
    pub brand: BrandId,
    /// The squatting technique.
    pub squat_type: SquatType,
}

/// Per-call instrumentation for the classify hot path, accumulated across
/// the calls of one scan block (see `squatphi_dnsdb::scan::ScanMetrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Logical probes performed (exact, deletion, swap, fold, affix
    /// lookups). Counted at the same sites as the legacy detector, so the
    /// value is identical across implementations; what changed is the
    /// cost of each probe (an O(1) fingerprint test vs an O(len) string
    /// hash).
    pub probes: u64,
    /// Probes that passed the bit filter and consulted the backing map.
    /// For the legacy detector every probe is a map probe, so there
    /// `deep_probes == probes`; for the fingerprint detector this is the
    /// (small) fraction the filter could not reject.
    pub deep_probes: u64,
    /// Probe strings built in the stack scratch — or skipped entirely by
    /// fingerprint arithmetic — that the original `String`-per-probe
    /// implementation would have heap-allocated.
    pub allocations_avoided: u64,
}

impl ClassifyStats {
    /// Folds another counter set into this one (the scan's merge sums
    /// its blocks' counters this way).
    pub fn merge(&mut self, other: &ClassifyStats) {
        self.probes += other.probes;
        self.deep_probes += other.deep_probes;
        self.allocations_avoided += other.allocations_avoided;
    }

    /// Publishes the counters into a telemetry scope. The struct itself
    /// stays a plain stack value — the classify hot path must not touch an
    /// atomic per probe — so each block accumulates locally and the sum is
    /// exported once.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        scope.counter("probes").add(self.probes);
        scope.counter("deep_probes").add(self.deep_probes);
        scope
            .counter("allocations_avoided")
            .add(self.allocations_avoided);
    }

    /// Reads the counters back from a snapshot scope — the inverse of
    /// [`ClassifyStats::export`].
    pub fn from_snapshot(snap: &squatphi_telemetry::Snapshot, prefix: &str) -> ClassifyStats {
        ClassifyStats {
            probes: snap.u64_or_zero(&format!("{prefix}.probes")),
            deep_probes: snap.u64_or_zero(&format!("{prefix}.deep_probes")),
            allocations_avoided: snap.u64_or_zero(&format!("{prefix}.allocations_avoided")),
        }
    }
}

/// Precomputed fingerprint index over the brand registry for O(len)
/// per-record classification (see the module docs for the engine).
#[derive(Debug)]
pub struct SquatDetector {
    /// brand label fingerprint -> id.
    labels: FpTable<BrandId>,
    /// canonical confusable fold of each brand label -> id (first brand
    /// wins fold collisions, mirroring the pregenerated table). One probe
    /// against this index resolves ambiguous ASCII glyph swaps (`1`/`i`/`l`,
    /// `g`/`q`, `u`/`v`, `2`/`z`) at *any* number of positions, including
    /// brands whose own labels contain confusable glyphs (`nets53`).
    canon: FpTable<BrandId>,
    /// brand label per id: `BrandId` is a dense index into the registry, so
    /// the reverse direction is a direct `Vec` index (the scan hot path hits
    /// this on every deletion-probe match; it must not walk the map).
    brand_labels: Vec<String>,
    /// brand suffix per id (to distinguish wrongTLD from the brand itself).
    suffixes: Vec<String>,
    /// One-char-deletion variants of every brand label:
    /// deleted-string fingerprint -> ordered (brand, deleted position)
    /// entries (registry order, then position order — the legacy map's
    /// insertion order, which the omission rule's first-entry-wins
    /// depends on).
    deletions: FpTable<Vec<(BrandId, usize)>>,
    /// Union filter over the `deletions` and `labels` key fingerprints:
    /// the edit-distance pass probes both tables with the *same* deletion
    /// fingerprint, so one load here rejects both probes at once for the
    /// overwhelmingly common miss.
    edit_filter: Filter,
    /// Minimum / maximum brand label length (quick length gate).
    min_len: usize,
    max_len: usize,
    confusables: ConfusableTable,
    /// Combo affix vocabulary: a short (< 4 char) brand affix inside a
    /// token is only accepted when the rest of the token is one of these
    /// words ("freight", "pay", …), keeping generic two-letter brands from
    /// matching random words.
    combo_words: std::collections::HashSet<&'static str>,
}

impl SquatDetector {
    /// Builds the unified fingerprint index from a registry: exact labels,
    /// canonical confusable folds and every one-char deletion of every
    /// brand label, each behind its own bit filter.
    pub fn new(registry: &BrandRegistry) -> Self {
        let mut labels = Vec::with_capacity(registry.len());
        let mut canon_first: std::collections::HashMap<String, BrandId> =
            std::collections::HashMap::with_capacity(registry.len());
        let mut canon_order: Vec<String> = Vec::with_capacity(registry.len());
        let mut brand_labels = Vec::with_capacity(registry.len());
        let mut suffixes = Vec::with_capacity(registry.len());
        let mut deletion_groups: std::collections::HashMap<String, Vec<(BrandId, usize)>> =
            std::collections::HashMap::new();
        let mut deletion_order: Vec<String> = Vec::new();
        let (mut min_len, mut max_len) = (usize::MAX, 0);
        for b in registry.brands() {
            debug_assert_eq!(b.id, brand_labels.len(), "registry ids must be dense");
            labels.push((b.label.clone(), b.id));
            let key: String = b
                .label
                .bytes()
                .map(|c| ConfusableTable::canonical_fold_byte(c) as char)
                .collect();
            if let std::collections::hash_map::Entry::Vacant(e) = canon_first.entry(key) {
                canon_order.push(e.key().clone());
                e.insert(b.id);
            }
            brand_labels.push(b.label.clone());
            suffixes.push(b.domain.suffix().to_string());
            min_len = min_len.min(b.label.len());
            max_len = max_len.max(b.label.len());
            for i in 0..b.label.len() {
                let mut d = String::with_capacity(b.label.len() - 1);
                d.push_str(&b.label[..i]);
                d.push_str(&b.label[i + 1..]);
                let group = deletion_groups.entry(d.clone()).or_default();
                if group.is_empty() {
                    deletion_order.push(d);
                }
                group.push((b.id, i));
            }
        }
        let canon = canon_order
            .into_iter()
            .map(|k| {
                let id = canon_first[&k];
                (k, id)
            })
            .collect();
        let deletions = deletion_order
            .into_iter()
            .map(|k| {
                let group = deletion_groups.remove(&k).expect("group recorded once");
                (k, group)
            })
            .collect();
        let labels = FpTable::build(labels);
        let deletions = FpTable::build(deletions);
        let edit_filter = Filter::from_fps(
            labels.fingerprints().chain(deletions.fingerprints()),
            registry.len() * (1 + max_len.max(1)),
        );
        SquatDetector {
            labels,
            canon: FpTable::build(canon),
            brand_labels,
            suffixes,
            deletions,
            edit_filter,
            min_len,
            max_len,
            confusables: ConfusableTable::new(),
            combo_words: crate::words::COMBO_WORDS.iter().copied().collect(),
        }
    }

    /// Classifies a domain. Returns `None` for non-squatting domains and
    /// for the brands' own domains. Subdomains are ignored: classification
    /// uses the core (registrable) label only, per the paper.
    pub fn classify(&self, domain: &DomainName) -> Option<SquatMatch> {
        let mut stats = ClassifyStats::default();
        self.classify_with_stats(domain, &mut stats)
    }

    /// [`classify`](Self::classify), accumulating probe / allocation
    /// counters into `stats` for the scan instrumentation layer.
    pub fn classify_with_stats(
        &self,
        domain: &DomainName,
        stats: &mut ClassifyStats,
    ) -> Option<SquatMatch> {
        let label = domain.core_label();
        let suffix = domain.suffix();

        // One pass builds the rolling prefix fingerprints; every probe
        // below is O(1) arithmetic over them. Non-ASCII display-form
        // labels take the cold path (they allocate during folding anyway).
        let hashes = if label.is_ascii() {
            debug_assert!(label.len() <= MAX_LABEL);
            Some(LabelHashes::new(label.as_bytes()))
        } else {
            None
        };

        // Exact brand label: either the brand itself or wrongTLD.
        stats.probes += 1;
        let h_exact = match &hashes {
            Some(h) => h.full(),
            None => fp(label.as_bytes()),
        };
        if self.labels.maybe(h_exact) {
            stats.deep_probes += 1;
            if let Some(&id) = self.labels.get(h_exact, |k| k == label) {
                if self.suffixes[id] == suffix {
                    return None; // the genuine brand domain
                }
                return Some(SquatMatch {
                    brand: id,
                    squat_type: SquatType::WrongTld,
                });
            }
        }

        // Quick length gate for the per-character probes below (combo is
        // exempt — it can be much longer than any brand).
        let in_len_range = label.len() + 1 >= self.min_len && label.len() <= self.max_len + 1;

        // Punycode expands the wire form well beyond the display length, so
        // IDN labels bypass the gate; sequence folds (`rn`→`m`) shrink by
        // one, which the +1 slack already covers.
        if in_len_range || label.starts_with(idna::ACE_PREFIX) {
            if let Some(m) = self.check_homograph(label, hashes.as_ref(), stats) {
                return Some(m);
            }
        }
        if in_len_range {
            if let Some(h) = &hashes {
                if let Some(m) = self.check_edit_distance(label, h, stats) {
                    return Some(m);
                }
            }
        }
        match &hashes {
            Some(h) => self.check_combo(label, h, stats),
            None => None, // combo is ASCII-only, as in the legacy detector
        }
    }

    /// Homograph: fold the (possibly IDN) label to its ASCII skeleton and
    /// look it up; then fold to the *canonical* confusable key and probe
    /// the canonically-keyed brand index, which resolves the ambiguous
    /// ASCII confusables (`1` imitates both `l` and `i`, `q`↔`g`, `u`↔`v`,
    /// `2`→`z`) at any number of positions with a single probe; also
    /// try multi-char sequence folds (`rn`→`m` …). `hashes` is `Some` for
    /// every ASCII label (including `xn--` wire forms).
    fn check_homograph(
        &self,
        label: &str,
        hashes: Option<&LabelHashes>,
        stats: &mut ClassifyStats,
    ) -> Option<SquatMatch> {
        let mut scratch = [0u8; MAX_LABEL + 1];
        if let Some(rest) = label.strip_prefix(idna::ACE_PREFIX) {
            // IDN: decode, fold, look up. Decoding allocates by nature, so
            // xn-- labels are exempt from the zero-alloc guarantee.
            let decoded = squatphi_domain::punycode::decode(rest).ok()?;
            let folded = self.confusables.skeleton(&decoded);
            if folded != label {
                stats.probes += 1;
                let h = fp(folded.as_bytes());
                if self.labels.maybe(h) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h, |k| k == folded) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Homograph,
                        });
                    }
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
            // is the byte-wise `ascii_fold_byte` map — computing both the
            // skeleton and the canonical-fold fingerprints in the same
            // pass. No allocation, no re-hash; the canonical bytes are
            // only materialized if their fingerprint passes the filter.
            debug_assert!(label.len() <= MAX_LABEL);
            let n = label.len();
            let mut h_skel = 0u64;
            let mut h_canon = 0u64;
            let mut changed = false;
            for (dst, &src) in scratch[..n].iter_mut().zip(label.as_bytes()) {
                let f = ConfusableTable::ascii_fold_byte(src);
                *dst = f;
                changed |= f != src;
                h_skel = fp_push(h_skel, f);
                h_canon = fp_push(h_canon, ConfusableTable::canonical_fold_byte(f));
            }
            stats.allocations_avoided += 1;
            if changed {
                stats.probes += 1;
                if self.labels.maybe(h_skel) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h_skel, |k| k.as_bytes() == &scratch[..n]) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Homograph,
                        });
                    }
                }
            }
            // Canonical confusable probe (same counting sites as
            // `canonical_probe`, which the cold branches still use).
            stats.allocations_avoided += 1;
            stats.probes += 1;
            if self.canon.maybe(h_canon) {
                stats.deep_probes += 1;
                for b in scratch[..n].iter_mut() {
                    *b = ConfusableTable::canonical_fold_byte(*b);
                }
                if let Some(&id) = self.canon.get(h_canon, |k| k.as_bytes() == &scratch[..n]) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Homograph,
                    });
                }
            }
        } else {
            // Non-ASCII Unicode label (already-decoded display form): fold
            // via the full confusable table, which allocates.
            let folded = self.confusables.skeleton(label);
            if folded != label {
                stats.probes += 1;
                let h = fp(folded.as_bytes());
                if self.labels.maybe(h) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h, |k| k == folded) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Homograph,
                        });
                    }
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
        // Each occurrence's folded fingerprint is O(1) from the prefix
        // hashes; the fold is only materialized (into the scratch) when a
        // fingerprint passes the filter and needs verification.
        if label.is_ascii() {
            let hashes = hashes.expect("ASCII labels always carry prefix hashes");
            /// `(fold index, target)` when an adjacent byte pair is a
            /// foldable sequence (`rn` → `m`, …). The fold index encodes
            /// the legacy probe order.
            #[inline]
            fn seq_fold_of(a: u8, b: u8) -> Option<(u8, u8)> {
                match (a, b) {
                    (b'r', b'n') => Some((0, b'm')),
                    (b'n', b'n') => Some((1, b'm')),
                    (b'v', b'v') => Some((2, b'w')),
                    (b'c', b'l') => Some((3, b'd')),
                    (b'l', b'c') => Some((4, b'k')),
                    (b'l', b'o') => Some((5, b'b')),
                    _ => None,
                }
            }
            // One pass over the adjacent pairs collects every occurrence
            // (the old code ran six `str::find` scans); probing still goes
            // fold-by-fold in occurrence order — the legacy probe order —
            // and every occurrence is probed, not just the first:
            // `fernrnart` (fernmart with m → rn) contains `rn` twice and
            // only folding the second one recovers the brand.
            let bytes = label.as_bytes();
            let mut occ = [(0u8, 0u8, 0u8); MAX_LABEL];
            let mut n_occ = 0usize;
            for pos in 0..bytes.len().saturating_sub(1) {
                if let Some((idx, target)) = seq_fold_of(bytes[pos], bytes[pos + 1]) {
                    occ[n_occ] = (idx, pos as u8, target);
                    n_occ += 1;
                }
            }
            for fold in 0..6u8 {
                for &(idx, pos, target) in &occ[..n_occ] {
                    if idx != fold {
                        continue;
                    }
                    let pos = pos as usize;
                    stats.allocations_avoided += 1;
                    stats.probes += 1;
                    let h = hashes.seq_fold(pos, target);
                    if self.labels.maybe(h) {
                        stats.deep_probes += 1;
                        let n = bytes.len() - 1;
                        scratch[..pos].copy_from_slice(&bytes[..pos]);
                        scratch[pos] = target;
                        scratch[pos + 1..n].copy_from_slice(&bytes[pos + 2..]);
                        if let Some(&id) = self.labels.get(h, |k| k.as_bytes() == &scratch[..n]) {
                            return Some(SquatMatch {
                                brand: id,
                                squat_type: SquatType::Homograph,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Canonical confusable probe: rewrite the (already skeleton-folded)
    /// ASCII bytes in place to the canonical fold — fingerprinting them in
    /// the same pass — and look the key up in the canonically-keyed brand
    /// index. Because canonical folds are equal **iff** the labels are
    /// related by single-character confusable swaps, this one probe
    /// replaces a per-position substitution loop and additionally resolves
    /// multi-position swaps (`a11iancebank`, `bloqqer`) and brands
    /// containing confusable glyphs (`nets53` vs `net553` / `netss3`).
    ///
    /// The caller guarantees the raw label failed the exact-label lookup,
    /// so any hit here is a genuine homograph, never the brand itself.
    fn canonical_probe(&self, folded: &mut [u8], stats: &mut ClassifyStats) -> Option<SquatMatch> {
        let mut h = 0u64;
        for b in folded.iter_mut() {
            *b = ConfusableTable::canonical_fold_byte(*b);
            h = fp_push(h, *b);
        }
        stats.allocations_avoided += 1;
        stats.probes += 1;
        if !self.canon.maybe(h) {
            return None;
        }
        stats.deep_probes += 1;
        let key: &[u8] = folded;
        self.canon
            .get(h, |k| k.as_bytes() == key)
            .map(|&id| SquatMatch {
                brand: id,
                squat_type: SquatType::Homograph,
            })
    }

    /// Bits / typo via symmetric deletion probing.
    ///
    /// Substitution (step a) and insertion (step c) both probe with the
    /// same one-char deletions of the label, so a single pass computes each
    /// deletion fingerprint once and serves both: substitution hits return
    /// immediately (highest precedence), the first insertion hit is
    /// remembered and only returned after the adjacent-swap probes,
    /// preserving the original bits → swap → insertion → omission order.
    fn check_edit_distance(
        &self,
        label: &str,
        hashes: &LabelHashes,
        stats: &mut ClassifyStats,
    ) -> Option<SquatMatch> {
        if !label.is_ascii() || label.is_empty() {
            return None;
        }
        debug_assert!(label.len() <= MAX_LABEL);
        let bytes = label.as_bytes();
        // One extra O(len) pass buys suffix fingerprints, making every
        // deletion / swap fingerprint below a single multiply.
        let suffixes = hashes.suffixes(bytes);
        let mut insertion_hit: Option<BrandId> = None;

        // (a) + (c): delete char i once; probe the deletion index for a
        // same-position brand deletion (substitution at i → bits if the two
        // bytes differ by one bit) and the label index for an exact brand
        // (insertion of i). Verification compares the key piecewise against
        // label[..i] ++ label[i+1..], so the deletion is never materialized.
        for i in 0..bytes.len() {
            stats.allocations_avoided += 2; // one String per step, twice
            let h = hashes.deletion(i, &suffixes);
            // Both tables are probed with the same fingerprint; one union
            // filter load rejects both at once on the common miss.
            let worth_probing = self.edit_filter.maybe(h);
            let is_deletion = |k: &str| {
                let kb = k.as_bytes();
                kb.len() + 1 == bytes.len() && kb[..i] == bytes[..i] && kb[i..] == bytes[i + 1..]
            };
            stats.probes += 1;
            if worth_probing && self.deletions.maybe(h) {
                stats.deep_probes += 1;
                if let Some(hits) = self.deletions.get(h, is_deletion) {
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
            }
            if insertion_hit.is_none() {
                stats.probes += 1;
                if worth_probing && self.labels.maybe(h) {
                    stats.deep_probes += 1;
                    insertion_hit = self.labels.get(h, is_deletion).copied();
                }
            }
        }
        // (b) Adjacent swap: the transposed fingerprint is O(1); the swap
        //     itself is verified piecewise on a filter pass.
        for i in 0..bytes.len().saturating_sub(1) {
            if bytes[i] == bytes[i + 1] {
                continue;
            }
            stats.allocations_avoided += 1;
            stats.probes += 1;
            let h = hashes.swap(i, bytes, &suffixes);
            if self.labels.maybe(h) {
                stats.deep_probes += 1;
                let is_swap = |k: &str| {
                    let kb = k.as_bytes();
                    kb.len() == bytes.len()
                        && kb[..i] == bytes[..i]
                        && kb[i] == bytes[i + 1]
                        && kb[i + 1] == bytes[i]
                        && kb[i + 2..] == bytes[i + 2..]
                };
                if let Some(&id) = self.labels.get(h, is_swap) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Typo,
                    });
                }
            }
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
        let h = hashes.full();
        if self.deletions.maybe(h) {
            stats.deep_probes += 1;
            if let Some(hits) = self.deletions.get(h, |k| k == label) {
                if let Some(&(id, _)) = hits.first() {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Typo,
                    });
                }
            }
        }
        None
    }

    /// Combo: hyphen-separated tokens containing the brand. Probe
    /// fingerprints are O(1) ranges over the label's prefix hashes, and
    /// verification borrows subslices of the label, so this step never
    /// allocated to begin with.
    ///
    /// Two passes: exact token matches across *all* tokens run before any
    /// affix probing, so `service-paypal` attributes to `paypal` (an exact
    /// token) rather than to a brand that happens to be an affix of an
    /// earlier token (`vice` inside `service`).
    fn check_combo(
        &self,
        label: &str,
        hashes: &LabelHashes,
        stats: &mut ClassifyStats,
    ) -> Option<SquatMatch> {
        if !label.contains('-') || !label.is_ascii() {
            return None;
        }
        // Pass 1: exact token match, all tokens.
        let mut off = 0;
        for token in label.split('-') {
            let (a, b) = (off, off + token.len());
            off = b + 1;
            if token.len() < 2 {
                continue;
            }
            stats.probes += 1;
            let h = hashes.range(a, b);
            if self.labels.maybe(h) {
                stats.deep_probes += 1;
                if let Some(&id) = self.labels.get(h, |k| k == token) {
                    return Some(SquatMatch {
                        brand: id,
                        squat_type: SquatType::Combo,
                    });
                }
            }
        }
        // Pass 2: token starts or ends with a brand label. Affixes >= 4
        // chars match unconditionally; shorter brand affixes ("adp" in
        // "adpfreight", "bt" in "btpay") are accepted only when the rest of
        // the token is a known combo word, which keeps generic two-letter
        // sequences inside random words from matching.
        let mut off = 0;
        for token in label.split('-') {
            let (a, b) = (off, off + token.len());
            off = b + 1;
            if token.len() < 2 {
                continue;
            }
            for cut in (4..token.len()).rev() {
                stats.probes += 2;
                let h_pre = hashes.range(a, a + cut);
                if self.labels.maybe(h_pre) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h_pre, |k| k == &token[..cut]) {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Combo,
                        });
                    }
                }
                let h_suf = hashes.range(b - cut, b);
                if self.labels.maybe(h_suf) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h_suf, |k| k == &token[token.len() - cut..])
                    {
                        return Some(SquatMatch {
                            brand: id,
                            squat_type: SquatType::Combo,
                        });
                    }
                }
            }
            for cut in (2..token.len().min(4)).rev() {
                stats.probes += 2;
                let h_pre = hashes.range(a, a + cut);
                if self.labels.maybe(h_pre) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h_pre, |k| k == &token[..cut]) {
                        if self.combo_words.contains(&token[cut..]) {
                            return Some(SquatMatch {
                                brand: id,
                                squat_type: SquatType::Combo,
                            });
                        }
                    }
                }
                let h_suf = hashes.range(b - cut, b);
                if self.labels.maybe(h_suf) {
                    stats.deep_probes += 1;
                    if let Some(&id) = self.labels.get(h_suf, |k| k == &token[token.len() - cut..])
                    {
                        if self.combo_words.contains(&token[..token.len() - cut]) {
                            return Some(SquatMatch {
                                brand: id,
                                squat_type: SquatType::Combo,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// The label of brand `id` (dense `Vec` index; used by reporting code).
    pub fn brand_label_of(&self, id: BrandId) -> &str {
        &self.brand_labels[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brand::BrandRegistry;

    fn detector() -> (BrandRegistry, SquatDetector) {
        let reg = BrandRegistry::with_size(30);
        let det = SquatDetector::new(&reg);
        (reg, det)
    }

    fn classify(det: &SquatDetector, s: &str) -> Option<SquatType> {
        det.classify(&DomainName::parse(s).unwrap())
            .map(|m| m.squat_type)
    }

    #[test]
    fn table1_examples_classified() {
        let (_reg, det) = detector();
        assert_eq!(classify(&det, "faceb00k.pw"), Some(SquatType::Homograph));
        assert_eq!(
            classify(&det, "xn--fcebook-8va.com"),
            Some(SquatType::Homograph)
        );
        assert_eq!(classify(&det, "facebnok.tk"), Some(SquatType::Bits));
        assert_eq!(classify(&det, "facebo0ok.com"), Some(SquatType::Typo));
        assert_eq!(classify(&det, "fcaebook.org"), Some(SquatType::Typo));
        assert_eq!(classify(&det, "facebook-story.de"), Some(SquatType::Combo));
        assert_eq!(classify(&det, "facebook.audi"), Some(SquatType::WrongTld));
    }

    #[test]
    fn brand_itself_is_not_squatting() {
        let (_reg, det) = detector();
        assert_eq!(classify(&det, "facebook.com"), None);
        assert_eq!(classify(&det, "paypal.com"), None);
    }

    #[test]
    fn unrelated_domains_pass() {
        let (_reg, det) = detector();
        assert_eq!(classify(&det, "example.com"), None);
        assert_eq!(classify(&det, "winterpillow.net"), None);
        assert_eq!(classify(&det, "random-hyphen-words.org"), None);
    }

    #[test]
    fn matched_brand_is_correct() {
        let (reg, det) = detector();
        let m = det
            .classify(&DomainName::parse("goofle.com.ua").unwrap())
            .unwrap();
        assert_eq!(reg.get(m.brand).unwrap().label, "google");
        assert_eq!(m.squat_type, SquatType::Bits);
    }

    #[test]
    fn brand_label_of_matches_registry() {
        let (reg, det) = detector();
        for b in reg.brands() {
            assert_eq!(det.brand_label_of(b.id), b.label);
        }
    }

    #[test]
    fn subdomains_are_ignored() {
        let (_reg, det) = detector();
        // mail.google-app.de → combo on google (paper example).
        assert_eq!(classify(&det, "mail.google-app.de"), Some(SquatType::Combo));
    }

    #[test]
    fn combo_fused_tokens() {
        let (reg, det) = detector();
        let m = det
            .classify(&DomainName::parse("go-uberfreight.com").unwrap())
            .unwrap();
        assert_eq!(reg.get(m.brand).unwrap().label, "uber");
        assert_eq!(m.squat_type, SquatType::Combo);
        // live-microsoftsupport.com (Fig 14c).
        let m = det
            .classify(&DomainName::parse("live-microsoftsupport.com").unwrap())
            .unwrap();
        assert_eq!(reg.get(m.brand).unwrap().label, "microsoft");
    }

    #[test]
    fn typo_variants_by_op() {
        let (_reg, det) = detector();
        assert_eq!(classify(&det, "facebok.tk"), Some(SquatType::Typo)); // omission
        assert_eq!(classify(&det, "faceboook.top"), Some(SquatType::Typo)); // repetition
        assert_eq!(classify(&det, "faecbook.com"), Some(SquatType::Typo)); // swap
    }

    #[test]
    fn homograph_precedes_typo_for_digit_swaps() {
        let (_reg, det) = detector();
        // goog1e: 1-for-l — confusable substitution, same length.
        assert_eq!(classify(&det, "goog1e.nl"), Some(SquatType::Homograph));
        // you5ube: paper Table 10 calls it typo, we classify 5→t… 5 is not
        // a confusable of t, and it's a substitution (not ins/del/swap) and
        // not one bit — so our orthogonal rules say None. Verify it doesn't
        // crash and returns something sensible.
        let r = classify(&det, "you5ube.com");
        assert!(r.is_none() || r == Some(SquatType::Typo));
    }

    #[test]
    fn swap_precedes_insertion() {
        // A label that is simultaneously an adjacent swap of one brand form
        // and an insertion over another must resolve as the swap (step b
        // outranks step c even though insertions are now detected during
        // the merged deletion pass).
        let (_reg, det) = detector();
        assert_eq!(classify(&det, "faecbook.com"), Some(SquatType::Typo));
    }

    #[test]
    fn stats_count_probes_for_misses() {
        let (_reg, det) = detector();
        let mut stats = ClassifyStats::default();
        let d = DomainName::parse("winterpillow.net").unwrap();
        assert!(det.classify_with_stats(&d, &mut stats).is_none());
        // At minimum the exact lookup plus the per-character deletion and
        // swap probes ran.
        assert!(stats.probes as usize > "winterpillow".len());
        assert!(stats.allocations_avoided > 0);
        // The filter must reject the overwhelming majority of a benign
        // label's probes before the backing map is touched.
        assert!(stats.deep_probes < stats.probes);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ClassifyStats {
            probes: 3,
            deep_probes: 1,
            allocations_avoided: 2,
        };
        let b = ClassifyStats {
            probes: 5,
            deep_probes: 2,
            allocations_avoided: 7,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ClassifyStats {
                probes: 8,
                deep_probes: 3,
                allocations_avoided: 9
            }
        );
    }

    #[test]
    fn wrong_tld_over_multi_suffix() {
        let (_reg, det) = detector();
        assert_eq!(classify(&det, "google.com.ua"), Some(SquatType::WrongTld));
    }

    #[test]
    fn generated_candidates_are_detected_as_their_type() {
        use crate::gen::{generate_all, GenBudget};
        let reg = BrandRegistry::with_size(20);
        let det = SquatDetector::new(&reg);
        let mut total = 0;
        let mut matched = 0;
        for brand in reg.brands() {
            for c in generate_all(
                brand,
                GenBudget {
                    homograph: 20,
                    bits: 20,
                    typo: 20,
                    combo: 20,
                    wrong_tld: 5,
                },
            ) {
                total += 1;
                if let Some(m) = det.classify(&c.domain) {
                    // Type may legitimately differ near precedence borders
                    // (e.g. a typo-insert that is also a brand's deletion);
                    // brand must be plausible though.
                    let _ = m;
                    matched += 1;
                }
            }
        }
        let rate = matched as f64 / total as f64;
        assert!(
            rate > 0.95,
            "detector recall on generated candidates too low: {rate} ({matched}/{total})"
        );
    }

    #[test]
    fn cross_type_consistency_on_clean_candidates() {
        use crate::gen::{generate_all, GenBudget};
        // For brands whose labels are far apart, generated type == detected type.
        let reg = BrandRegistry::with_size(8);
        let det = SquatDetector::new(&reg);
        let brand = reg.by_label("santander").unwrap();
        for c in generate_all(brand, GenBudget::default()) {
            if let Some(m) = det.classify(&c.domain) {
                assert_eq!(m.brand, brand.id, "{} matched wrong brand", c.domain);
            }
        }
    }
}
