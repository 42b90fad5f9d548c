//! Seeded conformance harness for the SquatPhi workspace.
//!
//! Three oracle families, all deterministic given a seed and a budget:
//!
//! * **Differential** — every candidate the forward generators emit
//!   ([`squatphi_squat::gen::generate_all`], indexed by the DNSTwist-style
//!   [`PregeneratedDetector`]) is streamed through the reverse probing
//!   [`SquatDetector`]. The two strategies must agree on match, brand and
//!   [`SquatType`]; a disagreement is arbitrated against independent
//!   ground-truth predicates ([`justify`]) and only an *unjustifiable*
//!   answer (or an outright miss) counts as a violation. A negative
//!   oracle feeds seeded random non-squatting domains through both and
//!   rejects unjustifiable hits.
//! * **Round-trip** — `punycode::encode`/`decode` (pinned to the RFC 3492
//!   §7.1 sample strings plus seeded random Unicode) and `idna::to_ascii`/
//!   `to_unicode`.
//! * **Never-panic fuzzing** — `html::parse`/`tokenize` over seeded
//!   structure-aware mutations, replaying a small on-disk corpus first.
//!   Any panic (caught with `catch_unwind`) is a violation.
//! * **Supervision** — seeded fault plans (injected analyzer panics,
//!   poisoned HTML, truncated crawl records) through the full supervised
//!   pipeline (`SquatPhi::try_run` on a micro config): no escaped panic,
//!   every completed run's report reconciles, and an interrupted +
//!   resumed checkpointed run fingerprints identically to an
//!   uninterrupted one with no partial checkpoint files.
//! * **Durability** — exhaustive single-byte damage (bitflips and
//!   truncations at every offset) over a real two-generation
//!   `DurableStore`: the reader never panics, any single damaged
//!   generation recovers the older body byte-exactly, both-damaged
//!   stores classify `Unrecoverable`, and the read ledger reconciles
//!   after every load.
//! * **pHash index** — seeded hash corpora (uniform, clustered, and
//!   bucket-flooding degenerate distributions) through
//!   `imghash::index::HashIndex` vs the preserved linear oracle:
//!   set-identical `within` results at radii 0..=16, identical k-NN
//!   under the insertion-order tie-break, and an exactly-reconciling
//!   probe ledger.
//!
//! Violating inputs are minimized by a greedy delta-debugging loop
//! ([`shrink`]) before they are reported, so a red run hands you the
//! smallest reproducing input, not a 300-byte blob.
//!
//! The harness runs three ways: `squatphi conformance` (CLI, `--json`
//! summary in the `ScanMetrics` style), `cargo test -p
//! squatphi-conformance` (CI-sized budget), and programmatically via
//! [`run`].
//!
//! [`PregeneratedDetector`]: squatphi_squat::pregen::PregeneratedDetector
//! [`SquatDetector`]: squatphi_squat::SquatDetector
//! [`SquatType`]: squatphi_squat::SquatType

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod differential;
mod durability;
mod fuzz;
pub mod justify;
mod phash_index;
mod report;
mod roundtrip;
mod scan_diff;
pub mod shrink;
mod supervision;

pub use report::{ConformanceReport, OracleOutcome, Violation};
pub use roundtrip::RFC3492_VECTORS;

use squatphi_squat::gen::GenBudget;

/// How much work each oracle does. Both presets are deterministic; `Full`
/// streams the complete 702-brand registry and is meant for release gates,
/// `Ci` is sized so `cargo test` stays fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// CI-sized: a 150-brand registry slice and a few hundred cases per
    /// oracle (a couple of seconds in debug builds).
    Ci,
    /// The full paper registry and the default generation budget.
    Full,
}

impl Budget {
    /// Parses a budget name (`ci` | `full`).
    pub fn parse(s: &str) -> Option<Budget> {
        match s {
            "ci" => Some(Budget::Ci),
            "full" => Some(Budget::Full),
            _ => None,
        }
    }

    /// The budget's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Budget::Ci => "ci",
            Budget::Full => "full",
        }
    }

    pub(crate) fn params(&self) -> Params {
        match self {
            Budget::Ci => Params {
                registry_size: Some(150),
                gen: GenBudget {
                    homograph: 60,
                    bits: 40,
                    typo: 80,
                    combo: 100,
                    wrong_tld: 10,
                },
                negatives: 800,
                punycode_cases: 400,
                idna_cases: 300,
                html_fuzz_cases: 300,
                supervision_plans: 2,
                durability_bodies: 2,
                scan_diff_negatives: 1500,
                phash_corpus: 2500,
                phash_queries: 40,
            },
            Budget::Full => Params {
                registry_size: None,
                gen: GenBudget::default(),
                negatives: 5000,
                punycode_cases: 2000,
                idna_cases: 1500,
                html_fuzz_cases: 1500,
                supervision_plans: 3,
                durability_bodies: 6,
                scan_diff_negatives: 8000,
                phash_corpus: 20_000,
                phash_queries: 120,
            },
        }
    }
}

/// Per-oracle case counts derived from a [`Budget`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    /// `Some(n)` → `BrandRegistry::with_size(n)`; `None` → full paper
    /// registry.
    pub registry_size: Option<usize>,
    /// Generation budget for the differential oracle.
    pub gen: GenBudget,
    /// Random non-squatting domains for the negative oracle.
    pub negatives: usize,
    /// Random punycode round-trip strings (on top of the RFC vectors).
    pub punycode_cases: usize,
    /// Random IDNA round-trip domains.
    pub idna_cases: usize,
    /// Mutated HTML documents fed to the never-panic fuzzer.
    pub html_fuzz_cases: usize,
    /// Seeded fault plans driven through the supervised pipeline (each
    /// plan is one full `try_run`; one checkpoint/resume scenario rides
    /// on top).
    pub supervision_plans: usize,
    /// Seeded store bodies for the durability oracle; the byte-level
    /// damage sweep per body is exhaustive, so this scales total work.
    pub durability_bodies: usize,
    /// Seeded random domains for the legacy↔fingerprint matcher
    /// differential (`scan-diff`), on top of the exhaustive generated
    /// candidates and the snapshot-level scan it always runs.
    pub scan_diff_negatives: usize,
    /// Entries per corpus family for the pHash-index differential
    /// (`phash-index`); the degenerate corpora use a quarter of this.
    pub phash_corpus: usize,
    /// Queries per corpus family for the pHash-index differential.
    pub phash_queries: usize,
}

/// One harness invocation: a seed and a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformanceConfig {
    /// Seed for every randomized oracle (the differential oracle itself is
    /// exhaustive over the generators and uses the seed only for the
    /// negative half).
    pub seed: u64,
    /// Work budget.
    pub budget: Budget,
}

/// Runs every oracle under `config` and collects the report. Two calls
/// with the same config produce byte-identical [`ConformanceReport::to_json`]
/// output (timings excluded).
pub fn run(config: &ConformanceConfig) -> ConformanceReport {
    let params = config.budget.params();
    let mut report = ConformanceReport::new(config.seed, config.budget.name());

    let mut coverage = [0u64; 5];
    report.push(timed("differential", || {
        differential::run_positive(&params, &mut coverage)
    }));
    report.type_coverage = coverage;
    report.push(timed("negative", || {
        differential::run_negative(config.seed, &params)
    }));
    report.push(timed("punycode-roundtrip", || {
        roundtrip::run_punycode(config.seed, &params)
    }));
    report.push(timed("idna-roundtrip", || {
        roundtrip::run_idna(config.seed, &params)
    }));
    report.push(timed("html-fuzz", || fuzz::run_html(config.seed, &params)));
    report.push(timed("supervision", || {
        supervision::run_supervision(config.seed, &params)
    }));
    report.push(timed("durability", || {
        durability::run_durability(config.seed, &params)
    }));
    report.push(timed("scan-diff", || {
        scan_diff::run_scan_diff(config.seed, &params)
    }));
    report.push(timed("phash-index", || {
        phash_index::run_phash_index(config.seed, &params)
    }));
    report
}

fn timed(name: &'static str, body: impl FnOnce() -> (u64, Vec<Violation>)) -> OracleOutcome {
    let start = std::time::Instant::now();
    let (cases, violations) = body();
    OracleOutcome {
        name,
        cases,
        violations,
        nanos: start.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_names_round_trip() {
        for b in [Budget::Ci, Budget::Full] {
            assert_eq!(Budget::parse(b.name()), Some(b));
        }
        assert_eq!(Budget::parse("bogus"), None);
    }

    #[test]
    fn ci_params_are_smaller_than_full() {
        let ci = Budget::Ci.params();
        let full = Budget::Full.params();
        assert!(ci.registry_size.is_some() && full.registry_size.is_none());
        assert!(ci.gen.combo < full.gen.combo);
        assert!(ci.html_fuzz_cases < full.html_fuzz_cases);
    }
}
