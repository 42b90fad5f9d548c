//! `visual_lookup`: `imghash::index` at the scale of the paper's crawled
//! corpus and at the radii the system uses; nothing else runs.
//!
//! Set-up builds a `HashIndex` over 1M hashes (so `setup_s` is the build
//! time plus a little); a pass asks it for the neighbours of each of 702
//! brand hashes ten times at radius 8 (`snapshots::VISUAL_MATCH_RADIUS`)
//! and once at radius 16 (the middle of the 10–22-bit band of
//! EXPERIMENTS.md Fig 8/9). An index is built once and asked many times,
//! and a pass without the 1.5 s build is short enough for a run to see
//! the machine undisturbed.
//!
//! The corpus is 80 % uniform and 20 % within 0–8 flips of a brand hash,
//! as `phash_baseline` builds it. The 702 brand hashes are seeded random
//! 64-bit values, not hashes of rendered brand pages: the generated
//! login pages share one template, so their real hashes collapse to ~200
//! values a few bits apart, every query would return the whole clustered
//! fifth of the corpus, and the workload would time `Vec` growth.

use super::{digest, time_reps, timed, Checks, Metrics, Scale, Workload};
use crate::stats::summarize;
use crate::tracer::Tracer;
use rand::prelude::*;
use squatphi::snapshots::VISUAL_MATCH_RADIUS;
use squatphi_imghash::index::{linear, HashIndex, Neighbor};
use squatphi_imghash::ImageHash;
use std::time::Instant;

const CORPUS: usize = 1_000_000;
const BRANDS: usize = 702;
/// Radius of the paper's layout-obfuscation band.
const WIDE_RADIUS: u32 = 16;
/// Times the brand queries are asked at the match radius in one pass.
const MATCH_ROUNDS: usize = 10;
/// Queries per radius whose answers are compared with the linear oracle.
const CHECKED: usize = 32;
/// Radii of the per-layer throughput curve.
const CURVE: [(u32, &str); 6] = [
    (0, "imghash.within_qps_r0"),
    (4, "imghash.within_qps_r4"),
    (8, "imghash.within_qps_r8"),
    (12, "imghash.within_qps_r12"),
    (16, "imghash.within_qps_r16"),
    (20, "imghash.within_qps_r20"),
];

/// The workload's input: a corpus, its index, the queries, and the
/// oracle's answers for the checked queries.
pub struct VisualLookup {
    corpus: Vec<ImageHash>,
    index: HashIndex,
    build_s: f64,
    queries: Vec<ImageHash>,
    expected: [Vec<Vec<Neighbor>>; 2],
    digest: u64,
}

/// One pass: seconds per phase and per match-radius query.
pub struct Pass {
    match_s: f64,
    wide_s: f64,
    match_latencies_s: Vec<f64>,
}

impl VisualLookup {
    fn checked(&self) -> &[ImageHash] {
        &self.queries[..CHECKED.min(self.queries.len())]
    }
}

/// Asks `index` for every query's neighbours; returns seconds and adds
/// per-query latencies to `latencies`.
fn ask(
    index: &HashIndex,
    queries: &[ImageHash],
    radius: u32,
    mut latencies: Option<&mut Vec<f64>>,
) -> f64 {
    let started = Instant::now();
    for q in queries {
        let t = Instant::now();
        std::hint::black_box(index.within(q, radius));
        if let Some(l) = latencies.as_deref_mut() {
            l.push(t.elapsed().as_secs_f64());
        }
    }
    started.elapsed().as_secs_f64()
}

impl Workload for VisualLookup {
    const NAME: &'static str = "visual_lookup";
    type Raw = Pass;
    type Pass = Pass;

    fn setup(seed: u64, scale: Scale) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<ImageHash> = (0..scale.pick(BRANDS, 64))
            .map(|_| ImageHash(rng.gen()))
            .collect();
        let corpus: Vec<ImageHash> = (0..scale.pick(CORPUS, 20_000))
            .map(|i| {
                if i % 5 == 0 {
                    let mut h = queries[rng.gen_range(0..queries.len())].0;
                    for _ in 0..rng.gen_range(0..=8usize) {
                        h ^= 1u64 << rng.gen_range(0..64u32);
                    }
                    ImageHash(h)
                } else {
                    ImageHash(rng.gen())
                }
            })
            .collect();
        let checked = &queries[..CHECKED.min(queries.len())];
        let oracle = |radius| {
            checked
                .iter()
                .map(|q| linear::within(&corpus, q, radius))
                .collect::<Vec<_>>()
        };
        let expected = [oracle(VISUAL_MATCH_RADIUS), oracle(WIDE_RADIUS)];
        let (index, build_s) = timed(|| HashIndex::from_hashes(corpus.iter().copied()));
        let bytes: Vec<u8> = corpus
            .iter()
            .chain(&queries)
            .flat_map(|h| h.0.to_le_bytes())
            .collect();
        VisualLookup {
            digest: digest(seed, [bytes.as_slice()]),
            corpus,
            index,
            build_s,
            queries,
            expected,
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hashes", self.corpus.len() as u64),
            ("brand_queries", self.queries.len() as u64),
            ("match_radius", VISUAL_MATCH_RADIUS as u64),
            ("match_rounds", MATCH_ROUNDS as u64),
            ("wide_radius", WIDE_RADIUS as u64),
        ]
    }

    fn pass(&self, tr: &mut Tracer) -> Pass {
        let index = &self.index;
        let mut match_latencies_s = Vec::with_capacity(MATCH_ROUNDS * self.queries.len());
        let match_s = tr.span("imghash.within_r8", |_| {
            (0..MATCH_ROUNDS)
                .map(|_| {
                    ask(
                        index,
                        &self.queries,
                        VISUAL_MATCH_RADIUS,
                        Some(&mut match_latencies_s),
                    )
                })
                .sum()
        });
        let wide_s = tr.span("imghash.within_r16", |_| {
            ask(index, &self.queries, WIDE_RADIUS, None)
        });
        Pass {
            match_s,
            wide_s,
            match_latencies_s,
        }
    }

    fn inspect(&self, pass: Pass, checks: &mut Checks) -> Pass {
        let index = &self.index;
        checks.require(
            index.len() == self.corpus.len(),
            &format!(
                "index holds {} of {} hashes",
                index.len(),
                self.corpus.len()
            ),
        );
        for (radius, expected) in [VISUAL_MATCH_RADIUS, WIDE_RADIUS]
            .into_iter()
            .zip(&self.expected)
        {
            let wrong = self
                .checked()
                .iter()
                .zip(expected)
                .filter(|(q, want)| index.within(q, radius) != **want)
                .count();
            checks.ops(
                expected.len() as u64,
                wrong as u64,
                &format!("radius-{radius} answers that differ from index::linear::within"),
            );
        }
        let counters = index.telemetry().snapshot();
        let count = |name: &str| counters.u64_or_zero(&format!("phash.index.{name}"));
        checks.require(
            count("probes") == count("verified") + count("pruned"),
            "phash.index: probes != verified + pruned",
        );
        pass
    }

    /// Queries answered: ten rounds at the match radius and one wide.
    fn items(&self, _: &Pass) -> u64 {
        ((MATCH_ROUNDS + 1) * self.queries.len()) as u64
    }

    fn finish(&self, passes: &[Pass], _: &mut Checks, detail: &mut Metrics) {
        let n = self.queries.len() as f64;
        let med =
            |f: fn(&Pass) -> f64| crate::stats::median(&passes.iter().map(f).collect::<Vec<_>>());
        detail.set("imghash.index_build_s", self.build_s, "s");
        detail.set(
            "imghash.r8_queries_per_s",
            MATCH_ROUNDS as f64 * n / med(|p| p.match_s),
            "1/s",
        );
        detail.set("imghash.r16_queries_per_s", n / med(|p| p.wide_s), "1/s");
        let pooled: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.match_latencies_s.iter().map(|s| s * 1e6))
            .collect();
        let latency = summarize(&pooled);
        detail.set("imghash.r8_query_p50_us", latency.p50, "us");
        // Too few samples for any tail (smoke sizes): report the maximum.
        let tail = latency
            .tail
            .map(|(_, v)| v)
            .unwrap_or_else(|| pooled.iter().copied().fold(0.0, f64::max));
        detail.set("imghash.r8_query_tail_us", tail, "us");
    }

    fn layers(&self, tr: &mut Tracer, traced: &Pass, _: &mut Checks, layers: &mut Metrics) {
        // The pass's own phases, as its user sees them.
        self.finish(std::slice::from_ref(traced), &mut Checks::default(), layers);

        // A fresh index, so the counters below start from zero.
        let index = tr.span("imghash.index_build", |_| {
            HashIndex::from_hashes(self.corpus.iter().copied())
        });
        let counters = |index: &HashIndex| {
            let snap = index.telemetry().snapshot();
            let get = |name: &str| snap.u64_or_zero(&format!("phash.index.{name}")) as f64;
            (get("probes"), get("verified"), get("fallbacks"))
        };
        let n = self.queries.len() as f64;
        for (radius, name) in CURVE {
            let (probes0, ..) = counters(&index);
            let s = tr.span(&format!("imghash.within_r{radius}"), |_| {
                ask(&index, &self.queries, radius, None)
            });
            layers.set(name, n / s, "1/s");
            let per_query = (counters(&index).0 - probes0) / n;
            tr.count(&format!("imghash.probes_per_query_r{radius}"), per_query);
            match radius {
                VISUAL_MATCH_RADIUS => {
                    layers.set("imghash.probes_per_query_r8", per_query, "count")
                }
                WIDE_RADIUS => layers.set("imghash.probes_per_query_r16", per_query, "count"),
                _ => {}
            }
        }
        let (probes, verified, fallbacks) = counters(&index);
        layers.set(
            "imghash.verified_share",
            verified / probes.max(1.0),
            "ratio",
        );
        layers.set("imghash.fallbacks", fallbacks, "count");

        // The oracle: one pass over the corpus per query, whatever the radius.
        let checked = self.checked();
        let linear_s = tr.span("imghash.linear_within", |_| {
            time_reps(0.2, || {
                for q in checked {
                    std::hint::black_box(linear::within(&self.corpus, q, VISUAL_MATCH_RADIUS));
                }
            })
        });
        layers.set("imghash.linear_qps", checked.len() as f64 / linear_s, "1/s");
    }
}
