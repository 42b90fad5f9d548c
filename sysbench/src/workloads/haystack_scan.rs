//! `haystack_scan`: the `squatphi scan <zone>` path at haystack size —
//! zone-file text in, squatting matches out.
//!
//! `dnswire::zone` + `domain` + `squat` + `dnsdb::scan` do all the work;
//! pages, ml and the crawler do none.

use super::{digest, Checks, Metrics, Scale, Workload};
use crate::spec::THREADS;
use crate::tracer::Tracer;
use squatphi_dnsdb::{
    synth, try_scan_with_metrics, RecordStore, ScanError, ScanMetrics, ScanOutcome, SnapshotConfig,
};
use squatphi_dnswire::zone::{self, ZoneError};
use squatphi_domain::DomainName;
use squatphi_squat::{BrandRegistry, SquatDetector};

/// 1M benign + 3k planted records (81 MB → 41 MB of zone text): a pass
/// is ~0.6 s, so a run's median rests on ~20 passes.
const BENIGN: usize = 1_000_000;
const PLANTED: usize = 3_000;
const SUBDOMAIN_FRACTION: f64 = 0.25;

/// The workload's input: zone text and what a correct scan finds in it.
pub struct HaystackScan {
    registry: BrandRegistry,
    detector: SquatDetector,
    snapshot: SnapshotConfig,
    zone: String,
    records: usize,
    expected_matches: usize,
    digest: u64,
}

/// What is kept of one parse + scan.
pub struct Pass {
    records: usize,
    from_zone_s: f64,
    scan_s: f64,
    probes: u64,
    deep_probes: u64,
}

type Scan = Result<(ScanOutcome, ScanMetrics), ScanError>;

impl Workload for HaystackScan {
    const NAME: &'static str = "haystack_scan";
    /// The parsed store, the scan of it, and the seconds each took.
    type Raw = Result<(RecordStore, Scan, f64, f64), ZoneError>;
    type Pass = Option<Pass>;

    fn setup(seed: u64, scale: Scale) -> Self {
        let registry = BrandRegistry::paper();
        let detector = SquatDetector::new(&registry);
        let snapshot = SnapshotConfig {
            benign_records: scale.pick(BENIGN, 20_000),
            squatting_records: scale.pick(PLANTED, 300),
            subdomain_fraction: SUBDOMAIN_FRACTION,
            seed,
        };
        let (store, _) = synth::generate(&snapshot, &registry);
        let zone = store.to_zone();
        // The reference: a one-thread scan of the store as synthesised,
        // before it went through zone text.
        let expected_matches = try_scan_with_metrics(&store, &registry, &detector, 1)
            .map(|(outcome, _)| outcome.total_matches())
            .expect("reference scan on one thread");
        HaystackScan {
            digest: digest(seed, [zone.as_bytes()]),
            records: store.len(),
            expected_matches,
            registry,
            detector,
            snapshot,
            zone,
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("records", self.records as u64),
            ("planted", self.snapshot.squatting_records as u64),
            ("zone_bytes", self.zone.len() as u64),
            ("brands", self.registry.len() as u64),
        ]
    }

    fn pass(&self, tr: &mut Tracer) -> Self::Raw {
        let (store, from_zone_s) =
            tr.timed("dnsdb.from_zone", || RecordStore::from_zone(&self.zone));
        let store = store?;
        let (scan, scan_s) = tr.timed("dnsdb.scan", || {
            try_scan_with_metrics(&store, &self.registry, &self.detector, THREADS)
        });
        Ok((store, scan, from_zone_s, scan_s))
    }

    fn inspect(&self, raw: Self::Raw, checks: &mut Checks) -> Self::Pass {
        let (store, (outcome, metrics), from_zone_s, scan_s) = match raw {
            Ok((store, Ok(scan), from_zone_s, scan_s)) => (store, scan, from_zone_s, scan_s),
            Ok((_, Err(e), ..)) => {
                checks.require(false, &format!("scan failed: {e:?}"));
                return None;
            }
            Err(e) => {
                checks.require(false, &format!("from_zone failed: {e}"));
                return None;
            }
        };
        checks.require(
            store.len() == self.records,
            &format!("parsed {} records, wrote {}", store.len(), self.records),
        );
        checks.ops(
            metrics.records() as u64,
            metrics.invalid() as u64,
            "records the scan called invalid",
        );
        checks.require(
            outcome.total_matches() == self.expected_matches,
            &format!(
                "{} matches, the one-thread scan of the synthesised store found {}",
                outcome.total_matches(),
                self.expected_matches
            ),
        );
        checks.require(
            ScanMetrics::reconciles(&outcome, &metrics),
            "ScanMetrics::reconciles is false",
        );
        Some(Pass {
            records: store.len(),
            from_zone_s,
            scan_s,
            probes: metrics.probes(),
            deep_probes: metrics.deep_probes(),
        })
    }

    fn items(&self, _: &Self::Pass) -> u64 {
        self.records as u64
    }

    fn finish(&self, passes: &[Self::Pass], _: &mut Checks, detail: &mut Metrics) {
        let done: Vec<&Pass> = passes.iter().flatten().collect();
        if done.is_empty() {
            return;
        }
        let med = |f: fn(&Pass) -> f64| {
            crate::stats::median(&done.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        detail.set("from_zone_s", med(|p| p.from_zone_s), "s");
        detail.set("scan_s", med(|p| p.scan_s), "s");
        detail.set("matches", self.expected_matches as f64, "count");
    }

    fn layers(&self, tr: &mut Tracer, traced: &Self::Pass, _: &mut Checks, layers: &mut Metrics) {
        let Some(traced) = traced else {
            return;
        };
        let n = traced.records as f64;
        layers.set(
            "dnsdb.from_zone_records_per_s",
            n / traced.from_zone_s,
            "1/s",
        );
        layers.set("dnsdb.scan_records_per_s", n / traced.scan_s, "1/s");
        layers.set("squat.probes_per_record", traced.probes as f64 / n, "count");
        layers.set(
            "squat.deep_probe_share",
            traced.deep_probes as f64 / traced.probes.max(1) as f64,
            "ratio",
        );
        tr.count("squat.probes", traced.probes as f64);
        tr.count("squat.deep_probes", traced.deep_probes as f64);

        // dnswire: text → records → text.
        let (records, parse_s) = tr.timed("dnswire.parse_zone", || zone::parse_zone(&self.zone));
        let records = records.expect("the pass parsed the same text");
        layers.set("dnswire.zone_parse_records_per_s", n / parse_s, "1/s");
        let (text, format_s) = tr.timed("dnswire.format_zone", || zone::format_zone(&records));
        layers.set("dnswire.zone_format_records_per_s", n / format_s, "1/s");
        drop(text);

        // domain: every owner name, one thread.
        let (names, parse_s) = tr.timed("domain.parse", || {
            records
                .iter()
                .filter_map(|r| DomainName::parse(&r.name).ok())
                .collect::<Vec<_>>()
        });
        drop(records);
        layers.set("domain.parse_ns_per_name", parse_s * 1e9 / n, "ns");

        // squat: detector build, then classify every parsed name.
        let (detector, build_s) = tr.timed("squat.detector_build", || {
            SquatDetector::new(&self.registry)
        });
        layers.set("squat.detector_build_ms", build_s * 1e3, "ms");
        let (found, classify_s) = tr.timed("squat.classify", || {
            names
                .iter()
                .filter(|d| detector.classify(d).is_some())
                .count()
        });
        std::hint::black_box(found);
        layers.set(
            "squat.classify_ns_per_name",
            classify_s * 1e9 / names.len().max(1) as f64,
            "ns",
        );
        drop(names);

        // dnsdb: synthesis, and the scan on one thread beside the pass's two.
        let ((store, _), synth_s) = tr.timed("dnsdb.synth", || {
            synth::generate(&self.snapshot, &self.registry)
        });
        layers.set("dnsdb.synth_records_per_s", n / synth_s, "1/s");
        let (_, t1_s) = tr.timed("dnsdb.scan_t1", || {
            try_scan_with_metrics(&store, &self.registry, &self.detector, 1)
        });
        layers.set("dnsdb.scan_t1_records_per_s", n / t1_s, "1/s");
        layers.set("dnsdb.scan_speedup", t1_s / traced.scan_s, "ratio");
    }
}
