//! Hamming-space nearest-neighbor index over 64-bit perceptual hashes.
//!
//! The paper's visual-similarity defense compares every candidate page
//! against every brand screenshot; done pairwise that is quadratic in the
//! corpus. [`HashIndex`] makes radius and k-NN lookups sub-linear with
//! **multi-index hashing** (Norouzi et al.): each 64-bit hash is split into
//! `m = 4` disjoint 16-bit substrings and filed under one exact-match
//! bucket table per substring. By the pigeonhole principle, any hash within
//! Hamming distance `r` of a query must agree with the query on at least one
//! substring up to that table's flip *allowance*, for any allowances
//! `a_0..a_3` with `sum(a_t + 1) > r` — so probing each table for every
//! substring value within its allowance of the query's substring yields a
//! complete candidate set, and a full-distance check (through the one
//! shared [`crate::hamming64`] path) filters it exactly. Allowances are
//! distributed unevenly (front-loaded) because `sum(a_t) = r + 1 - m` beats
//! `a_t = floor(r/m)` everywhere: radius 8 probes 188 buckets, not 548.
//!
//! The index is built once, from a whole corpus: the four tables are one
//! flat bucket table filled by a counting sort, so a probe reads one
//! contiguous run of hashes (see `BucketTable`).
//!
//! The query body is compiled twice from one source: as it is, and, on
//! x86-64, inside a `#[target_feature(enable = "popcnt")]` function, where
//! every `count_ones` (the substring skips and [`crate::hamming64`]) is one
//! instruction instead of baseline x86-64's bit-twiddling sequence.
//! [`HashIndex::within`] picks the copy on each call through
//! `is_x86_feature_detected!`, whose answer std caches; that call is the
//! crate's one `unsafe` block. Both copies give the same answers and bump
//! the same counters; the [`linear`] oracle keeps the plain popcount.
//!
//! Adversarial corpora (e.g. every hash identical) collapse the bucket
//! tables; when the probed buckets' combined size would rival a linear scan,
//! queries fall back to a **BK-tree** that stores one node per *distinct*
//! hash value (duplicates append to the node's id list), which handles
//! exactly the degenerate distributions that flood MIH buckets. The tree is
//! built on the first fallback, so an index no query falls back on never
//! pays for it.
//!
//! Tie-breaking is deterministic and insertion-order-stable:
//! [`HashIndex::within`] returns neighbors sorted by ascending insertion id,
//! and [`HashIndex::nearest`] sorts by `(distance, insertion id)` before
//! truncating to `k`. The pre-index linear scan is preserved as the
//! [`linear`] oracle — the conformance `phash-index` oracle and the property
//! suite pin the index to it bit-for-bit.

use crate::{hamming64, ImageHash};
use squatphi_telemetry::{Counter, Registry};
use std::ops::Range;
use std::sync::OnceLock;

/// Number of substrings each hash is split into.
pub const CHUNKS: usize = 4;
/// Bits per substring (`64 / CHUNKS`).
pub const CHUNK_BITS: u32 = 64 / CHUNKS as u32;
const BUCKETS_PER_TABLE: usize = 1 << CHUNK_BITS;
const BUCKETS: usize = CHUNKS * BUCKETS_PER_TABLE;
/// How many plan slots ahead `mih_within` loads a bucket's first entry.
const LOOK_AHEAD: usize = 8;

/// A lookup result: the stored hash, its insertion id and its distance to
/// the query. Insertion ids are the corpus positions given to
/// [`HashIndex::from_hashes`], which is what every tie-break rule keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// Dense insertion id (the hash's position in the corpus).
    pub id: u32,
    /// The stored hash.
    pub hash: ImageHash,
    /// Hamming distance to the query (0..=64).
    pub distance: u32,
}

/// `phash.index.*` counters, registered in a telemetry [`Registry`] so the
/// `probes == verified + pruned` conservation identity is auditable.
struct IndexCounters {
    inserts: Counter,
    queries: Counter,
    probes: Counter,
    bucket_hits: Counter,
    verified: Counter,
    pruned: Counter,
    fallbacks: Counter,
}

impl IndexCounters {
    fn in_registry(registry: &Registry) -> IndexCounters {
        let scope = registry.scope("phash").scope("index");
        IndexCounters {
            inserts: scope.counter("inserts"),
            queries: scope.counter("queries"),
            probes: scope.counter("probes"),
            bucket_hits: scope.counter("bucket_hits"),
            verified: scope.counter("verified"),
            pruned: scope.counter("pruned"),
            fallbacks: scope.counter("fallbacks"),
        }
    }
}

/// One BK-tree node: a distinct hash value, every insertion id that carries
/// it (ascending, because inserts append), and children keyed by distance.
struct BkNode {
    hash: u64,
    ids: Vec<u32>,
    /// `(distance to this node, child node index)`, in first-seen order.
    /// First-seen order is a function of the insert sequence alone, so
    /// traversal order — and every counter it bumps — is deterministic.
    children: Vec<(u32, u32)>,
}

/// BK-tree over distinct hash values. Kept small on purpose: it exists for
/// the bucket-flooding corpora, not as a general-purpose structure.
#[derive(Default)]
struct BkTree {
    nodes: Vec<BkNode>,
}

impl BkTree {
    /// The tree of `hashes` inserted in id order.
    fn build(hashes: &[u64]) -> BkTree {
        let mut tree = BkTree::default();
        for (id, &hash) in hashes.iter().enumerate() {
            tree.insert(id as u32, hash);
        }
        tree
    }

    fn insert(&mut self, id: u32, hash: u64) {
        if self.nodes.is_empty() {
            self.nodes.push(BkNode {
                hash,
                ids: vec![id],
                children: Vec::new(),
            });
            return;
        }
        let mut at = 0usize;
        loop {
            let d = hamming64(hash, self.nodes[at].hash);
            if d == 0 {
                self.nodes[at].ids.push(id);
                return;
            }
            match self.nodes[at].children.iter().find(|(cd, _)| *cd == d) {
                Some(&(_, child)) => at = child as usize,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(BkNode {
                        hash,
                        ids: vec![id],
                        children: Vec::new(),
                    });
                    self.nodes[at].children.push((d, child));
                    return;
                }
            }
        }
    }

    /// All `(id, distance)` pairs within `radius` of `query`, in tree order.
    /// `visit` is called once per node with that node's entry count, so the
    /// caller can account every stored hash as probed exactly once.
    #[inline(always)]
    fn within(&self, query: u64, radius: u32, mut visit: impl FnMut(u64, bool)) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![0u32];
        while let Some(at) = stack.pop() {
            let node = &self.nodes[at as usize];
            let d = hamming64(query, node.hash);
            let hit = d <= radius;
            visit(node.ids.len() as u64, hit);
            if hit {
                out.extend(node.ids.iter().map(|&id| (id, d)));
            }
            // Triangle inequality: only children whose edge distance lies in
            // [d - radius, d + radius] can contain results.
            let lo = d.saturating_sub(radius);
            let hi = d.saturating_add(radius);
            for &(cd, child) in node.children.iter().rev() {
                if (lo..=hi).contains(&cd) {
                    stack.push(child);
                }
            }
        }
        out
    }
}

/// The `CHUNKS` bucket tables as one flat (CSR) table: bucket
/// `table * BUCKETS_PER_TABLE + substring` holds every entry whose hash has
/// that substring value in `table`, as the run `starts[b]..starts[b + 1]`
/// of the entry arrays, in ascending-id order. Hashes sit in their own
/// array so a probe verifies a run by reading 8-byte words in sequence;
/// only a hit needs its id.
struct BucketTable {
    /// `BUCKETS + 1` offsets into the entry arrays; the last is `CHUNKS * n`.
    starts: Vec<u32>,
    entry_hash: Vec<u64>,
    entry_id: Vec<u32>,
}

fn chunk_of(hash: u64, table: usize) -> usize {
    ((hash >> (table as u32 * CHUNK_BITS)) & (BUCKETS_PER_TABLE as u64 - 1)) as usize
}

fn bucket_of(hash: u64, table: usize) -> usize {
    table * BUCKETS_PER_TABLE + chunk_of(hash, table)
}

impl BucketTable {
    /// Files every hash under its `CHUNKS` buckets with a two-pass counting
    /// sort: count each bucket's entries, turn the counts into offsets,
    /// then place the entries in id order. Both passes go one table at a
    /// time, so the offsets they touch stay in cache.
    fn build(hashes: &[u64]) -> BucketTable {
        let total = u32::try_from(hashes.len() * CHUNKS).expect("HashIndex capped at 2^30 hashes");
        let mut starts = vec![0u32; BUCKETS + 1];
        for table in 0..CHUNKS {
            for &hash in hashes {
                starts[bucket_of(hash, table) + 1] += 1;
            }
        }
        let mut sum = 0;
        for start in &mut starts {
            sum += *start;
            *start = sum;
        }
        let mut next = starts.clone();
        let mut entry_hash = vec![0u64; total as usize];
        let mut entry_id = vec![0u32; total as usize];
        for table in 0..CHUNKS {
            for (id, &hash) in hashes.iter().enumerate() {
                let slot = &mut next[bucket_of(hash, table)];
                entry_hash[*slot as usize] = hash;
                entry_id[*slot as usize] = id as u32;
                *slot += 1;
            }
        }
        BucketTable {
            starts,
            entry_hash,
            entry_id,
        }
    }

    fn run(&self, bucket: usize) -> Range<usize> {
        self.starts[bucket] as usize..self.starts[bucket + 1] as usize
    }
}

/// Multi-index-hashing nearest-neighbor index with a BK-tree fallback.
///
/// See the [module docs](self) for the layout and tie-break rules. Every
/// query path verifies candidates through [`crate::hamming64`], and results
/// are always set-identical to the [`linear`] oracle.
pub struct HashIndex {
    hashes: Vec<u64>,
    table: BucketTable,
    /// Built from `hashes` in id order by the first query that falls back.
    bk: OnceLock<BkTree>,
    counters: IndexCounters,
    registry: Registry,
}

impl std::fmt::Debug for HashIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashIndex")
            .field("len", &self.hashes.len())
            .field("bk_nodes", &self.bk.get().map_or(0, |bk| bk.nodes.len()))
            .finish()
    }
}

/// Per-table flip allowances for a query radius. The pigeonhole argument
/// only needs the allowances to satisfy `sum(a_t) >= radius + 1 - CHUNKS`:
/// if every table's substring distance exceeded its allowance, the total
/// distance would be at least `sum(a_t + 1) >= radius + 1`. Distributing
/// the slack unevenly (rather than `radius / CHUNKS` everywhere) shrinks
/// the probe set sharply — radius 8 probes 188 buckets instead of 548.
fn allowances(radius: u32) -> [u32; CHUNKS] {
    let base = (radius + 1).saturating_sub(CHUNKS as u32);
    let mut out = [base / CHUNKS as u32; CHUNKS];
    for (t, a) in out.iter_mut().enumerate() {
        if (t as u32) < base % CHUNKS as u32 {
            *a += 1;
        }
    }
    out
}

/// Enumerate every `CHUNK_BITS`-bit value within `flips` bit flips of
/// `base`, in a deterministic order (by flip count, then lexicographic flip
/// positions). Calls `emit` for each value, `base` included.
fn for_each_chunk_within(base: usize, flips: u32, emit: &mut impl FnMut(usize)) {
    fn go(value: usize, start: u32, flips_left: u32, emit: &mut impl FnMut(usize)) {
        emit(value);
        if flips_left == 0 {
            return;
        }
        for bit in start..CHUNK_BITS {
            go(value ^ (1 << bit), bit + 1, flips_left - 1, emit);
        }
    }
    // Enumerating by recursion emits each value exactly once: flip positions
    // are strictly increasing, so no pattern repeats.
    go(base, 0, flips, emit);
}

impl HashIndex {
    /// Build an index over `corpus` in iteration order (ids `0..len`),
    /// with a private telemetry registry.
    pub fn from_hashes<I: IntoIterator<Item = ImageHash>>(corpus: I) -> HashIndex {
        HashIndex::from_hashes_in(&Registry::new(), corpus)
    }

    /// [`Self::from_hashes`] with the `phash.index.*` counters in
    /// `registry`, so a pipeline-wide snapshot carries them alongside every
    /// other scope.
    pub fn from_hashes_in<I: IntoIterator<Item = ImageHash>>(
        registry: &Registry,
        corpus: I,
    ) -> HashIndex {
        let hashes: Vec<u64> = corpus.into_iter().map(|h| h.0).collect();
        let counters = IndexCounters::in_registry(registry);
        counters.inserts.add(hashes.len() as u64);
        HashIndex {
            table: BucketTable::build(&hashes),
            hashes,
            bk: OnceLock::new(),
            counters,
            registry: registry.clone(),
        }
    }

    /// The registry holding this index's `phash.index.*` counters.
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// Number of stored hashes (duplicates included).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the corpus was empty.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The hash stored under insertion id `id`.
    pub fn get(&self, id: u32) -> Option<ImageHash> {
        self.hashes.get(id as usize).copied().map(ImageHash)
    }

    /// The buckets MIH would probe for this query/radius, flattened.
    /// Table order is preserved (all of table 0's patterns, then table
    /// 1's, …) — the first-match attribution in `mih_within` depends on it.
    fn probe_plan(&self, query: u64, allow: &[u32; CHUNKS]) -> Vec<u32> {
        let mut plan = Vec::new();
        for (table, &flips) in allow.iter().enumerate() {
            let base = chunk_of(query, table);
            let offset = table * BUCKETS_PER_TABLE;
            for_each_chunk_within(base, flips, &mut |value| {
                plan.push((offset + value) as u32);
            });
        }
        plan
    }

    /// All stored hashes within Hamming `radius` of `query`, sorted by
    /// ascending insertion id (the documented tie-break for equal hashes).
    ///
    /// Runs the one query body compiled with the `popcnt` instruction when
    /// the CPU has it, and as it is otherwise; both copies give the same
    /// answers and bump the same counters.
    pub fn within(&self, query: &ImageHash, radius: u32) -> Vec<Neighbor> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `within_popcnt` enables no target feature but
            // `popcnt`, which the check above has just found on this CPU.
            #[allow(unsafe_code)]
            return unsafe { self.within_popcnt(query, radius) };
        }
        self.within_plain(query, radius)
    }

    /// [`Self::within_plain`] with every `count_ones` in it, inlined
    /// through `mih_within`, `bk_within` and [`crate::hamming64`], compiled
    /// to one `popcnt` instruction instead of baseline x86-64's
    /// bit-twiddling sequence.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn within_popcnt(&self, query: &ImageHash, radius: u32) -> Vec<Neighbor> {
        self.within_plain(query, radius)
    }

    /// The body of [`Self::within`], for the target the crate is built for.
    #[inline(always)]
    fn within_plain(&self, query: &ImageHash, radius: u32) -> Vec<Neighbor> {
        self.counters.queries.inc();
        if self.hashes.is_empty() {
            return Vec::new();
        }
        // Radii this wide make MIH unselective (the first table alone
        // would enumerate most of its 2^16 patterns) — skip straight to
        // the BK-tree rather than materialize a near-exhaustive plan.
        if radius >= 2 * CHUNK_BITS {
            self.counters.fallbacks.inc();
            return self.bk_within(query.0, radius);
        }
        let allow = allowances(radius);
        let plan = self.probe_plan(query.0, &allow);
        // Candidate estimate: if the probed buckets collectively rival a
        // linear scan (duplicates flooding one bucket, or a huge radius),
        // the BK-tree's distinct-hash nodes win — take the fallback.
        let estimate: usize = plan
            .iter()
            .map(|&b| self.table.run(b as usize).len())
            .sum::<usize>();
        if estimate >= self.hashes.len() / 2 {
            self.counters.fallbacks.inc();
            return self.bk_within(query.0, radius);
        }
        self.mih_within(query.0, radius, &allow, &plan)
    }

    #[inline(always)]
    fn mih_within(
        &self,
        query: u64,
        radius: u32,
        allow: &[u32; CHUNKS],
        plan: &[u32],
    ) -> Vec<Neighbor> {
        // First-match attribution instead of a seen-bitmap: an entry is
        // charged to the *earliest* table whose substring lies within that
        // table's allowance, and skipped (via a cheap substring popcount)
        // everywhere later — so each candidate is verified exactly once and
        // hits need no dedup, only the final sort back to insertion order.
        let mut out = Vec::new();
        let mut bucket_hits = 0u64;
        let mut probes = 0u64;
        let mut verified = 0u64;
        for (i, &bucket) in plan.iter().enumerate() {
            // Load the first entry of the bucket `LOOK_AHEAD` slots on, so
            // its cache miss overlaps this bucket's verify work; `black_box`
            // keeps the unused load from being optimised away.
            if let Some(&ahead) = plan.get(i + LOOK_AHEAD) {
                let start = self.table.starts[ahead as usize] as usize;
                std::hint::black_box(self.table.entry_hash.get(start).copied());
            }
            let table = bucket as usize / BUCKETS_PER_TABLE;
            let run = self.table.run(bucket as usize);
            if !run.is_empty() {
                bucket_hits += 1;
            }
            let ids = &self.table.entry_id[run.clone()];
            'entry: for (&hash, &id) in self.table.entry_hash[run].iter().zip(ids) {
                for (t, &a) in allow.iter().enumerate().take(table) {
                    let d = (chunk_of(hash, t) ^ chunk_of(query, t)).count_ones();
                    if d <= a {
                        continue 'entry; // already charged to table t
                    }
                }
                probes += 1;
                let distance = hamming64(query, hash);
                if distance <= radius {
                    verified += 1;
                    out.push(Neighbor {
                        id,
                        hash: ImageHash(hash),
                        distance,
                    });
                }
            }
        }
        self.counters.bucket_hits.add(bucket_hits);
        self.counters.probes.add(probes);
        self.counters.verified.add(verified);
        self.counters.pruned.add(probes - verified);
        out.sort_unstable_by_key(|n| n.id);
        out
    }

    #[inline(always)]
    fn bk_within(&self, query: u64, radius: u32) -> Vec<Neighbor> {
        let bk = self.bk.get_or_init(|| BkTree::build(&self.hashes));
        let (mut probes, mut verified) = (0u64, 0u64);
        let mut pairs = bk.within(query, radius, |entries, hit| {
            probes += entries;
            if hit {
                verified += entries;
            }
        });
        self.counters.probes.add(probes);
        self.counters.verified.add(verified);
        self.counters.pruned.add(probes - verified);
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs
            .into_iter()
            .map(|(id, distance)| Neighbor {
                id,
                hash: ImageHash(self.hashes[id as usize]),
                distance,
            })
            .collect()
    }

    /// The `k` nearest stored hashes, sorted by `(distance, insertion id)` —
    /// equal-distance ties always resolve to the earlier insert. Exact: built
    /// on expanding-radius [`Self::within`] calls, never approximate.
    pub fn nearest(&self, query: &ImageHash, k: usize) -> Vec<Neighbor> {
        self.nearest_by(query, k, HashIndex::within)
    }

    /// [`Self::nearest`] on the `within` copy given, so the tests can run
    /// it on the plain copy too.
    fn nearest_by(
        &self,
        query: &ImageHash,
        k: usize,
        within: fn(&HashIndex, &ImageHash, u32) -> Vec<Neighbor>,
    ) -> Vec<Neighbor> {
        if k == 0 || self.hashes.is_empty() {
            return Vec::new();
        }
        // Radii step 0, 4, 8, ... up to 64 (`+ CHUNKS`). Each step adds
        // `CHUNKS` to the allowance sum `radius + 1 - CHUNKS`: 0 -> 4 gives
        // table 0 its first flip, and every later step one more flip to
        // every table, so each expansion probes a strictly larger plan.
        let mut radius = 0u32;
        loop {
            let mut found = within(self, query, radius);
            if found.len() >= k || radius >= 64 {
                found.sort_unstable_by_key(|n| (n.distance, n.id));
                found.truncate(k);
                return found;
            }
            radius = (radius + CHUNKS as u32).min(64);
        }
    }
}

/// The preserved pre-index linear scan, kept as the differential oracle.
///
/// Shapes match [`HashIndex`] exactly — same [`Neighbor`] type, same
/// tie-break rules — so the conformance oracle compares results verbatim.
pub mod linear {
    use super::Neighbor;
    use crate::{hamming64, ImageHash};

    /// All corpus entries within `radius` of `query`; ids are corpus
    /// positions, output is ascending-id (scan order).
    pub fn within(corpus: &[ImageHash], query: &ImageHash, radius: u32) -> Vec<Neighbor> {
        corpus
            .iter()
            .enumerate()
            .filter_map(|(id, hash)| {
                let distance = hamming64(query.0, hash.0);
                (distance <= radius).then_some(Neighbor {
                    id: id as u32,
                    hash: *hash,
                    distance,
                })
            })
            .collect()
    }

    /// The `k` nearest corpus entries, sorted by `(distance, id)`.
    pub fn nearest(corpus: &[ImageHash], query: &ImageHash, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = corpus
            .iter()
            .enumerate()
            .map(|(id, hash)| Neighbor {
                id: id as u32,
                hash: *hash,
                distance: hamming64(query.0, hash.0),
            })
            .collect();
        all.sort_by_key(|n| (n.distance, n.id));
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(bits: &[u64]) -> Vec<ImageHash> {
        bits.iter().copied().map(ImageHash).collect()
    }

    fn bk_nodes(index: &HashIndex) -> Option<usize> {
        index.bk.get().map(|bk| bk.nodes.len())
    }

    #[test]
    fn within_matches_linear_on_small_corpus() {
        let corpus = hashes(&[0x0, 0x1, 0x3, 0xFF, u64::MAX, 0x8000_0000_0000_0001]);
        let index = HashIndex::from_hashes(corpus.iter().copied());
        for query in &corpus {
            // Radii past 64 take the BK-tree, whose `d + radius` must not wrap.
            for radius in [0, 1, 2, 8, 33, 64, 65, 1000, u32::MAX] {
                assert_eq!(
                    index.within(query, radius),
                    linear::within(&corpus, query, radius),
                    "query {query} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn nearest_matches_linear_and_breaks_ties_by_id() {
        // Two entries at identical distance from the query: the earlier
        // insert must win.
        let corpus = hashes(&[0b1000, 0b0001, 0b0010, 0b1111]);
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let query = ImageHash(0);
        for k in 0..=corpus.len() + 1 {
            let got = index.nearest(&query, k);
            assert_eq!(got, linear::nearest(&corpus, &query, k), "k = {k}");
        }
        let top2 = index.nearest(&query, 2);
        assert_eq!(
            (top2[0].id, top2[1].id),
            (0, 1),
            "equal-distance ties must resolve to the earlier insertion id"
        );
    }

    #[test]
    fn duplicate_heavy_corpus_takes_bk_fallback_and_stays_exact() {
        let corpus = vec![ImageHash(0xABCD); 500];
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let got = index.within(&ImageHash(0xABCD), 0);
        assert_eq!(got, linear::within(&corpus, &ImageHash(0xABCD), 0));
        assert_eq!(got.len(), 500);
        let snap = index.telemetry().snapshot();
        assert!(snap.u64_or_zero("phash.index.fallbacks") >= 1);
        // The BK-tree stores one node for all 500 duplicates.
        assert_eq!(bk_nodes(&index), Some(1));
    }

    #[test]
    fn probe_conservation_holds_on_both_paths() {
        let spread = (0..300u64).map(|i| ImageHash(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        // Flood one bucket -> BK path at r=0.
        let index = HashIndex::from_hashes(spread.chain(std::iter::repeat_n(ImageHash(0), 400)));
        index.within(&ImageHash(0), 0); // BK fallback
        index.within(&ImageHash(0x1234), 6); // MIH path
        let snap = index.telemetry().snapshot();
        assert_eq!(
            snap.u64_or_zero("phash.index.probes"),
            snap.u64_or_zero("phash.index.verified") + snap.u64_or_zero("phash.index.pruned")
        );
        assert_eq!(snap.u64_or_zero("phash.index.inserts"), 700);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = HashIndex::from_hashes(std::iter::empty());
        assert!(index.is_empty());
        assert!(index.within(&ImageHash(7), 64).is_empty());
        assert!(index.nearest(&ImageHash(7), 3).is_empty());
    }

    #[test]
    fn chunk_enumeration_counts_match_binomials() {
        let mut count = 0usize;
        for_each_chunk_within(0x55AA, 2, &mut |_| count += 1);
        // C(16,0) + C(16,1) + C(16,2) = 1 + 16 + 120
        assert_eq!(count, 137);
        let mut values = Vec::new();
        for_each_chunk_within(0x55AA, 2, &mut |v| values.push(v));
        let mut dedup = values.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), values.len(), "no chunk value emitted twice");
    }

    #[test]
    fn get_returns_inserted_hash() {
        let index = HashIndex::from_hashes([ImageHash(42)]);
        assert_eq!(index.get(0), Some(ImageHash(42)));
        assert_eq!(index.get(1), None);
    }

    #[test]
    fn bucket_table_holds_each_bucket_in_id_order() {
        let spread: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i % 7))
            .collect();
        for corpus in [vec![], vec![0xDEAD_BEEF], vec![0xABCD; 50], spread] {
            let table = BucketTable::build(&corpus);
            assert_eq!(table.starts.len(), BUCKETS + 1);
            assert_eq!(table.starts[0], 0);
            assert!(
                table.starts.windows(2).all(|w| w[0] <= w[1]),
                "starts not monotone"
            );
            assert_eq!(table.starts[BUCKETS] as usize, CHUNKS * corpus.len());
            // The oracle: one `Vec` per bucket, pushed in id order.
            let mut want = vec![Vec::new(); BUCKETS];
            for (id, &hash) in corpus.iter().enumerate() {
                for t in 0..CHUNKS {
                    want[bucket_of(hash, t)].push(id as u32);
                }
            }
            for (bucket, ids) in want.iter().enumerate() {
                let run = table.run(bucket);
                assert_eq!(&table.entry_id[run.clone()], ids, "bucket {bucket}");
                for (&id, &hash) in table.entry_id[run.clone()]
                    .iter()
                    .zip(&table.entry_hash[run])
                {
                    assert_eq!(hash, corpus[id as usize]);
                }
            }
        }
    }

    #[test]
    fn mih_only_queries_leave_the_bk_tree_unbuilt() {
        let corpus: Vec<ImageHash> = (0..2_000u64)
            .map(|i| ImageHash(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let index = HashIndex::from_hashes(corpus.iter().copied());
        for query in corpus.iter().step_by(97) {
            for radius in [0, 4, 8, 12] {
                assert_eq!(
                    index.within(query, radius),
                    linear::within(&corpus, query, radius)
                );
            }
        }
        assert_eq!(
            index
                .telemetry()
                .snapshot()
                .u64_or_zero("phash.index.fallbacks"),
            0
        );
        assert_eq!(bk_nodes(&index), None);
        assert!(format!("{index:?}").contains("bk_nodes: 0"));
    }

    #[test]
    fn first_fallback_builds_one_node_per_distinct_hash() {
        let corpus = hashes(&[5, 9, 5, 0, u64::MAX, 9, 9, 0x8000]);
        let index = HashIndex::from_hashes(corpus.iter().copied());
        assert_eq!(bk_nodes(&index), None);
        let q = ImageHash(5);
        assert_eq!(index.within(&q, 40), linear::within(&corpus, &q, 40));
        assert_eq!(bk_nodes(&index), Some(5));
        assert!(format!("{index:?}").contains("bk_nodes: 5"));
    }

    /// splitmix64, for seeded corpora with no dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn dispatched_within_equals_the_plain_copy() {
        let mut state = 47u64;
        let queries: Vec<u64> = (0..6).map(|_| next(&mut state)).collect();
        let uniform: Vec<u64> = (0..3_000).map(|_| next(&mut state)).collect();
        // 20 % within 0-8 flips of a query, as `visual_lookup` builds it.
        let clustered: Vec<u64> = (0..3_000)
            .map(|i| {
                if i % 5 != 0 {
                    return next(&mut state);
                }
                let mut h = queries[next(&mut state) as usize % queries.len()];
                for _ in 0..next(&mut state) % 9 {
                    h ^= 1 << (next(&mut state) % 64);
                }
                h
            })
            .collect();
        let duplicates: Vec<u64> = (0..1_000)
            .map(|i| queries[i % 2] ^ (i as u64 % 3))
            .collect();
        for corpus in [uniform, clustered, duplicates, vec![queries[0]]] {
            let corpus = hashes(&corpus);
            let plain = HashIndex::from_hashes_in(&Registry::new(), corpus.iter().copied());
            let dispatched = HashIndex::from_hashes_in(&Registry::new(), corpus.iter().copied());
            for query in hashes(&queries).iter().chain(&corpus[..1]) {
                for radius in 0..=33 {
                    assert_eq!(
                        plain.within_plain(query, radius),
                        dispatched.within(query, radius),
                        "query {query} radius {radius}"
                    );
                }
                for k in [1, 5, 17] {
                    assert_eq!(
                        plain.nearest_by(query, k, HashIndex::within_plain),
                        dispatched.nearest(query, k),
                        "query {query} k {k}"
                    );
                }
            }
            let render = |index: &HashIndex| index.telemetry().snapshot().render();
            assert_eq!(render(&plain), render(&dispatched));
            assert!(render(&plain).contains("\"probes\""));
        }
    }

    #[test]
    fn racing_first_fallbacks_both_answer_exactly() {
        let corpus: Vec<ImageHash> = (0..600u64)
            .map(|i| ImageHash((i % 150).wrapping_mul(0x2545_F491_4F6C_DD1D)))
            .collect();
        let index = HashIndex::from_hashes(corpus.iter().copied());
        let queries = [corpus[3], ImageHash(0x0F0F_0F0F)];
        let start = std::sync::Barrier::new(queries.len());
        let answers: Vec<Vec<Neighbor>> = std::thread::scope(|s| {
            let workers: Vec<_> = queries
                .iter()
                .map(|q| {
                    let (index, start) = (&index, &start);
                    s.spawn(move || {
                        start.wait();
                        index.within(q, 40)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("query thread panicked"))
                .collect()
        });
        for (q, got) in queries.iter().zip(&answers) {
            assert_eq!(got, &linear::within(&corpus, q, 40));
        }
        assert_eq!(bk_nodes(&index), Some(150));
        let snap = index.telemetry().snapshot();
        assert_eq!(snap.u64_or_zero("phash.index.fallbacks"), 2);
        assert_eq!(
            snap.u64_or_zero("phash.index.probes"),
            snap.u64_or_zero("phash.index.verified") + snap.u64_or_zero("phash.index.pruned")
        );
    }
}
