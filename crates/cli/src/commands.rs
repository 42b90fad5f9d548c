//! Subcommand implementations. Every function writes its report into a
//! `String` so tests can assert on output without process spawning.

use crate::cli::Command;
use squatphi::{DiskFaultPlan, FeatureExtractor, SquatPhi, WatchConfig, WatchOptions};
use squatphi_crawler::{
    crawl_all, CircuitBreakerPolicy, CrawlConfig, CrawlOutcome, DeadlinePolicy, FaultPlan,
    InProcessTransport, RetryPolicy, TransportStack,
};
use squatphi_dnsdb::{scan_with_metrics, RecordStore};
use squatphi_domain::{idna, DomainName};
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_ml::Classifier;
use squatphi_squat::gen::{generate_all, GenBudget};
use squatphi_squat::{BrandRegistry, SquatDetector};
use squatphi_web::{Device, WebWorld, WorldConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Runs a parsed command, returning the report text.
pub fn run(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(crate::cli::USAGE.to_string()),
        Command::Gen { brand, limit } => gen(brand, *limit),
        Command::Classify { domains } => classify(domains),
        Command::Scan {
            path,
            type_filter,
            threads,
            json,
            timings,
        } => scan_zone(path, type_filter.as_deref(), *threads, *json, *timings),
        Command::Crawl {
            path,
            threads,
            retries,
            plan,
            seed,
            json,
            timings,
        } => crawl_zone(path, *threads, *retries, *plan, *seed, *json, *timings),
        Command::Page { path, brand } => page(path, brand.as_deref()),
        Command::Render { path, width } => render(path, *width),
        Command::Conformance {
            seed,
            budget,
            json,
            timings,
            report,
        } => conformance(*seed, budget, *json, *timings, report.as_deref()),
        Command::Watch {
            seed,
            events,
            brands,
            threads,
            stop_after,
            checkpoint_dir,
            resume,
            disk_faults,
            json,
            timings,
        } => watch(
            *seed,
            *events,
            *brands,
            *threads,
            *stop_after,
            checkpoint_dir.as_deref(),
            *resume,
            *disk_faults,
            *json,
            *timings,
        ),
    }
}

/// Runs the streaming watch daemon. An interrupted (`--stop-after`) run
/// is still a success — the summary reports `interrupted: true` and the
/// watermark checkpoint (when `--checkpoint` is set) lets a later
/// `--resume` continue from it.
#[allow(clippy::too_many_arguments)]
fn watch(
    seed: u64,
    events: u64,
    brands: usize,
    threads: usize,
    stop_after: Option<u64>,
    checkpoint_dir: Option<&str>,
    resume: bool,
    disk_faults: DiskFaultPlan,
    json: bool,
    timings: bool,
) -> Result<String, String> {
    let config = WatchConfig::builder()
        .seed(seed)
        .events(events)
        .brands(brands)
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    let opts = WatchOptions {
        checkpoint_dir: checkpoint_dir.map(PathBuf::from),
        resume,
        stop_after,
        disk_faults,
    };
    let summary = SquatPhi::try_watch(&config, &opts).map_err(|e| e.to_string())?;
    if json {
        return Ok(summary.to_json_with_timings(timings));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "watch: seed {} over {} events ({} brands, {} threads){}",
        summary.seed,
        summary.events,
        brands,
        threads,
        if summary.interrupted {
            format!(" — interrupted at watermark {}", summary.watermark)
        } else {
            String::new()
        }
    );
    let _ = writeln!(out, "  {}", summary.report_line());
    if checkpoint_dir.is_some() {
        let _ = writeln!(out, "  durability: {}", summary.durability.report_line());
    }
    if let Some(detail) = &summary.recovered_checkpoint {
        let _ = writeln!(
            out,
            "  recovered checkpoint: resumed from an older generation ({detail})"
        );
    } else if summary.resumed {
        let _ = writeln!(out, "  resumed from the watermark checkpoint");
    }
    let c = &summary.counters;
    let _ = writeln!(
        out,
        "  ingest:    {} accepted, {} dropped (reg {}, churn {}, feed {})",
        c.accepted,
        c.dropped(),
        c.dropped_registrations,
        c.dropped_churn,
        c.dropped_feed
    );
    let _ = writeln!(
        out,
        "  detect:    {} processed, {} squats flagged, {} stalls",
        c.processed, c.detected, c.detect_stalls
    );
    let _ = writeln!(
        out,
        "  crawl:     {} jobs ({} first, {} recrawls), {} live, {} takedowns",
        c.crawl_jobs,
        c.first_crawls,
        c.recrawls,
        c.live_found,
        c.takedowns + c.churn_takedowns
    );
    let _ = writeln!(
        out,
        "  tracking:  {} live now, {} pending recrawls, {} blacklisted",
        summary.tracked, summary.pending_recrawls, c.blacklisted
    );
    let _ = writeln!(
        out,
        "  transport: {} attempts, {} retries, {} breaker trips",
        summary.transport.attempts, summary.transport.retries, summary.transport.breaker_trips
    );
    let _ = writeln!(
        out,
        "  state fingerprint: {:#018x}",
        summary.state_fingerprint
    );
    Ok(out)
}

/// Runs the conformance oracles. Returns `Err` (→ non-zero exit) when any
/// oracle reports a violation, with the full report as the error text so
/// the shrunk inputs reach the operator; the `--report` file is written in
/// both cases.
fn conformance(
    seed: u64,
    budget: &str,
    json: bool,
    timings: bool,
    report_path: Option<&str>,
) -> Result<String, String> {
    let budget = squatphi_conformance::Budget::parse(budget)
        .ok_or_else(|| format!("unknown --budget {budget:?} (ci | full)"))?;
    let report =
        squatphi_conformance::run(&squatphi_conformance::ConformanceConfig { seed, budget });
    if let Some(path) = report_path {
        std::fs::write(path, report.to_json(false) + "\n")
            .map_err(|e| format!("cannot write --report {path}: {e}"))?;
    }
    let mut rendered = if json {
        report.to_json(timings)
    } else {
        report.render_text(timings)
    };
    if !rendered.ends_with('\n') {
        rendered.push('\n');
    }
    if report.total_violations() == 0 {
        Ok(rendered)
    } else {
        Err(format!(
            "{} conformance violation(s)\n{rendered}",
            report.total_violations()
        ))
    }
}

fn registry() -> BrandRegistry {
    BrandRegistry::paper()
}

fn gen(brand_label: &str, limit: usize) -> Result<String, String> {
    let registry = registry();
    let brand = registry.by_label(brand_label).ok_or_else(|| {
        format!("unknown brand {brand_label:?} (702 brands monitored; try `facebook`)")
    })?;
    let budget = GenBudget {
        homograph: limit,
        bits: limit,
        typo: limit,
        combo: limit,
        wrong_tld: limit,
    };
    let mut out = format!("candidates for {} ({}):\n", brand.label, brand.domain);
    for c in generate_all(brand, budget) {
        let shown = if c.domain.is_idn() {
            format!(
                "{} (shown as {})",
                c.domain,
                idna::to_unicode(c.domain.as_str())
            )
        } else {
            c.domain.to_string()
        };
        let _ = writeln!(out, "  {:<50} {}", shown, c.squat_type);
    }
    Ok(out)
}

fn classify(domains: &[String]) -> Result<String, String> {
    let registry = registry();
    let detector = SquatDetector::new(&registry);
    let mut out = String::new();
    for raw in domains {
        let ascii = idna::to_ascii(raw).map_err(|e| format!("{raw}: {e}"))?;
        match DomainName::parse(&ascii) {
            Ok(d) => match detector.classify(&d) {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "{raw}: SQUATTING ({}) on {}",
                        m.squat_type,
                        registry.get(m.brand).expect("valid brand id").label
                    );
                }
                None => {
                    let _ = writeln!(out, "{raw}: clean");
                }
            },
            Err(e) => {
                let _ = writeln!(out, "{raw}: invalid domain ({e})");
            }
        }
    }
    Ok(out)
}

/// Renders a registry snapshot as the `--json` output, applying the one
/// telemetry-layer `--timings` rule: wall-clock values are zeroed unless
/// the caller opted in, so default output is two-run byte-identical.
fn snapshot_json(reg: &squatphi_telemetry::Registry, timings: bool) -> String {
    let mut snap = reg.snapshot();
    if !timings {
        snap.strip_timings();
    }
    let mut out = snap.render();
    out.push('\n');
    out
}

fn scan_zone(
    path: &str,
    type_filter: Option<&str>,
    threads: usize,
    json: bool,
    timings: bool,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let store = RecordStore::from_zone(&text).map_err(|e| format!("{path}: {e}"))?;
    let registry = registry();
    let detector = SquatDetector::new(&registry);
    let (outcome, metrics) = scan_with_metrics(&store, &registry, &detector, threads);
    if json {
        let reg = squatphi_telemetry::Registry::new();
        let scope = reg.scope("scan");
        outcome.export(&scope);
        metrics.export(&scope);
        return Ok(snapshot_json(&reg, timings));
    }
    let mut out = format!(
        "scanned {} records: {} squatting domains ({} invalid records skipped)\n",
        outcome.scanned,
        outcome.total_matches(),
        outcome.invalid
    );
    let _ = writeln!(
        out,
        "  {:.0} records/s over {} blocks on {} workers ({} probes, {} past filter, {} allocations avoided, {} dedupe collisions)",
        metrics.records_per_sec(),
        metrics.blocks,
        metrics.requested_workers,
        metrics.probes(),
        metrics.deep_probes(),
        metrics.allocations_avoided(),
        metrics.dedupe_collisions,
    );
    let names = ["Homograph", "Bits", "Typo", "Combo", "WrongTLD"];
    for (i, n) in outcome.by_type.iter().enumerate() {
        let _ = writeln!(out, "  {:<10} {n}", names[i]);
    }
    for m in &outcome.matches {
        let ty = m.squat_type.to_string();
        if type_filter
            .map(|f| f.eq_ignore_ascii_case(&ty))
            .unwrap_or(true)
        {
            let _ = writeln!(
                out,
                "  {:<40} {:<10} {}",
                m.domain,
                ty,
                registry.get(m.brand).expect("valid brand id").label
            );
        }
    }
    Ok(out)
}

fn crawl_zone(
    path: &str,
    threads: usize,
    retries: usize,
    plan: FaultPlan,
    seed: u64,
    json: bool,
    timings: bool,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let store = RecordStore::from_zone(&text).map_err(|e| format!("{path}: {e}"))?;
    let registry = registry();
    let detector = SquatDetector::new(&registry);
    let (outcome, _) = scan_with_metrics(&store, &registry, &detector, threads);
    if outcome.matches.is_empty() {
        if json {
            let reg = squatphi_telemetry::Registry::new();
            squatphi_crawler::CrawlStats::default().export(&reg.scope("crawl"));
            return Ok(snapshot_json(&reg, timings));
        }
        return Ok(format!(
            "scanned {} records: no squatting domains to crawl\n",
            outcome.scanned
        ));
    }
    let squats: Vec<(String, usize, squatphi_squat::SquatType, std::net::Ipv4Addr)> = outcome
        .matches
        .iter()
        .map(|m| (m.domain.registrable(), m.brand, m.squat_type, m.ip))
        .collect();
    let world = Arc::new(WebWorld::build(
        &squats,
        &registry,
        &WorldConfig {
            seed,
            ..WorldConfig::default()
        },
    ));
    let jobs: Vec<(String, usize, squatphi_squat::SquatType)> = squats
        .iter()
        .map(|(d, b, t, _)| (d.clone(), *b, *t))
        .collect();

    let stack = TransportStack::new(InProcessTransport::new(world))
        .chaos(plan)
        .retry(RetryPolicy::default())
        .breaker(CircuitBreakerPolicy::default())
        .deadline(DeadlinePolicy::default())
        .build();
    let cfg = CrawlConfig::builder()
        .workers(threads)
        .retries(retries)
        .build()
        .map_err(|e| e.to_string())?;
    let (records, stats) = crawl_all(&jobs, &registry, &stack, &cfg);
    if json {
        let reg = squatphi_telemetry::Registry::new();
        stats.export(&reg.scope("crawl"));
        return Ok(snapshot_json(&reg, timings));
    }

    let mut out = format!(
        "scanned {} records: crawling {} squatting domains over {} workers\n",
        outcome.scanned,
        jobs.len(),
        threads
    );
    let _ = writeln!(
        out,
        "  live: {} web, {} mobile (of {})",
        stats.web_live, stats.mobile_live, stats.total
    );
    let _ = writeln!(
        out,
        "  web redirects: {} none, {} original, {} market, {} other",
        stats.web_no_redirect,
        stats.web_redirect_original,
        stats.web_redirect_market,
        stats.web_redirect_other
    );
    let (mut truncated, mut dead) = (0usize, 0usize);
    for r in &records {
        match r.outcome(Device::Web) {
            CrawlOutcome::TruncatedChain => truncated += 1,
            CrawlOutcome::Dead => dead += 1,
            CrawlOutcome::Live => {}
        }
    }
    let _ = writeln!(
        out,
        "  web outcomes: {} truncated chains, {} dead",
        truncated, dead
    );
    let _ = writeln!(out, "  transport: {}", stats.transport.report_line());
    Ok(out)
}

fn page(path: &str, brand_label: Option<&str>) -> Result<String, String> {
    let html = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let registry = registry();
    let extractor = FeatureExtractor::new(&registry);
    // One analysis pass feeds every report line below — structure, OCR,
    // evasion, and the classifier score all read the same artifact.
    let artifact = extractor.analyzer().analyze(&html);

    let mut out = String::new();

    // Structure.
    let _ = writeln!(out, "title: {:?}", artifact.title.as_deref().unwrap_or(""));
    let _ = writeln!(
        out,
        "forms: {} (password inputs: {})",
        artifact.form_count, artifact.password_inputs
    );
    let _ = writeln!(
        out,
        "js indicators: eval={} fromCharCode={} obfuscated={}",
        artifact.js.eval_calls,
        artifact.js.from_char_code,
        artifact.js.is_obfuscated()
    );

    // OCR channel.
    let _ = writeln!(out, "ocr text: {}", truncate(&artifact.ocr_text, 160));

    // Evasion vs a brand, if requested.
    if let Some(label) = brand_label {
        let brand = registry
            .by_label(label)
            .ok_or_else(|| format!("unknown brand {label:?}"))?;
        let brand_page = squatphi_web::pages::brand_login_page(brand);
        let brand_artifact = extractor.analyzer().analyze(&brand_page);
        let m = squatphi::evasion::measure_artifacts(&artifact, &brand_artifact, &brand.label);
        let _ = writeln!(
            out,
            "evasion vs {}: layout distance {}, string obfuscated {}, code obfuscated {}",
            brand.label, m.layout_distance, m.string_obfuscated, m.code_obfuscated
        );
    } else if !artifact.degraded {
        // No brand named: report the visually closest monitored brand via
        // the Hamming-space index. The 64 most-popular brands keep the
        // audit fast; a perfect visual clone of a monitored page is found
        // regardless of obfuscation elsewhere.
        let analyzer = extractor.analyzer();
        let brand_index =
            squatphi::artifact::BrandHashIndex::build(registry.brands().iter().take(64).map(|b| {
                let page = squatphi_web::pages::brand_login_page(b);
                (b.id, analyzer.analyze(&page).image_hash)
            }));
        if let Some(m) = brand_index.nearest_brand(&artifact.image_hash) {
            let label = registry
                .get(m.brand)
                .map(|b| b.label.as_str())
                .unwrap_or("?");
            let _ = writeln!(
                out,
                "nearest brand page: {} (layout distance {})",
                label, m.distance
            );
        }
    }

    // Classifier score (model trained on the synthetic ground-truth feed;
    // a real deployment would load a persisted model instead).
    let feed = GroundTruthFeed::generate(
        &registry,
        &FeedConfig {
            total_urls: 1_200,
            seed: 77,
        },
    );
    let pages: Vec<(&str, bool)> = feed
        .entries
        .iter()
        .map(|e| (e.html.as_str(), e.still_phishing))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let data = extractor.build_dataset(&pages, threads);
    let model = squatphi::train::fit_final_model(&data, 7);
    let score = model.score(&extractor.extract_from_artifact(&artifact));
    let _ = writeln!(
        out,
        "phishing score: {score:.2} -> {}",
        if score >= 0.5 {
            "FLAGGED"
        } else {
            "not flagged"
        }
    );
    // Counters only: stage times would make two runs' stdout differ.
    let _ = writeln!(
        out,
        "analysis: {}",
        extractor.analyzer().metrics().counters_line()
    );
    Ok(out)
}

fn render(path: &str, width: usize) -> Result<String, String> {
    let html = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bmp = squatphi::artifact::PageAnalyzer::new().screenshot(&html);
    Ok(squatphi_render::ascii::to_ascii(&bmp, width))
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_lists_candidates() {
        let out = run(&Command::Gen {
            brand: "facebook".into(),
            limit: 2,
        })
        .expect("runs");
        assert!(out.contains("Combo") || out.contains("combo"));
        assert!(out.contains("facebook"));
    }

    #[test]
    fn gen_rejects_unknown_brand() {
        assert!(run(&Command::Gen {
            brand: "definitelynotabrand".into(),
            limit: 2
        })
        .is_err());
    }

    #[test]
    fn classify_reports_each_domain() {
        let out = run(&Command::Classify {
            domains: vec![
                "faceb00k.pw".into(),
                "winterpillow.net".into(),
                "fàcebook.com".into(), // unicode input goes through IDNA
                "not a domain".into(),
            ],
        })
        .expect("runs");
        assert!(out.contains("faceb00k.pw: SQUATTING (Homograph) on facebook"));
        assert!(out.contains("winterpillow.net: clean"));
        assert!(out.contains("fàcebook.com: SQUATTING (Homograph) on facebook"));
        assert!(out.contains("invalid domain"));
    }

    #[test]
    fn scan_reads_zone_files() {
        let dir = std::env::temp_dir().join("squatphi-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("zone.txt");
        std::fs::write(
            &path,
            "faceb00k.pw.\t300\tIN\tA\t203.0.113.1\n\
             pepper-garden.net.\t300\tIN\tA\t203.0.113.2\n\
             paypal-cash.com.\t300\tIN\tA\t203.0.113.3\n",
        )
        .expect("write");
        let out = run(&Command::Scan {
            path: path.to_string_lossy().into_owned(),
            type_filter: None,
            threads: 2,
            json: false,
            timings: false,
        })
        .expect("runs");
        assert!(out.contains("2 squatting domains"), "{out}");
        assert!(out.contains("faceb00k.pw"));
        assert!(out.contains("paypal-cash.com"));
        assert!(!out.contains("pepper-garden"));
        // Type filter narrows the listing.
        let combo_only = run(&Command::Scan {
            path: path.to_string_lossy().into_owned(),
            type_filter: Some("Combo".into()),
            threads: 2,
            json: false,
            timings: false,
        })
        .expect("runs");
        assert!(combo_only.contains("paypal-cash.com"));
        assert!(!combo_only
            .lines()
            .any(|l| l.contains("faceb00k.pw") && l.contains("Homograph")));
    }

    #[test]
    fn scan_json_is_stripped_and_deterministic() {
        let dir = std::env::temp_dir().join("squatphi-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("scan-json-zone.txt");
        std::fs::write(
            &path,
            "faceb00k.pw.\t300\tIN\tA\t203.0.113.1\n\
             paypal-cash.com.\t300\tIN\tA\t203.0.113.3\n",
        )
        .expect("write");
        let scan = |timings| {
            run(&Command::Scan {
                path: path.to_string_lossy().into_owned(),
                type_filter: None,
                threads: 2,
                json: true,
                timings,
            })
            .expect("runs")
        };
        let a = scan(false);
        // Default JSON strips wall-clock values, so two runs diff clean.
        assert_eq!(a, scan(false));
        assert!(a.contains("\"matches\": 2"), "{a}");
        assert!(a.contains("\"wall_nanos\": 0"), "{a}");
        assert!(a.contains("\"records_per_sec\": 0.000000"), "{a}");
        // --timings keeps the same schema with live values.
        let timed = scan(true);
        assert!(!timed.contains("\"wall_nanos\": 0"), "{timed}");
    }

    #[test]
    fn crawl_json_is_stripped_and_deterministic() {
        let dir = std::env::temp_dir().join("squatphi-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("crawl-json-zone.txt");
        std::fs::write(
            &path,
            "faceb00k.pw.\t300\tIN\tA\t203.0.113.1\n\
             paypal-cash.com.\t300\tIN\tA\t203.0.113.3\n",
        )
        .expect("write");
        let crawl = || {
            run(&Command::Crawl {
                path: path.to_string_lossy().into_owned(),
                threads: 1,
                retries: 1,
                plan: FaultPlan::fail_every(2),
                seed: 3,
                json: true,
                timings: false,
            })
            .expect("runs")
        };
        let a = crawl();
        assert_eq!(a, crawl());
        assert!(a.contains("\"transport\""), "{a}");
        assert!(a.contains("\"attempts\""), "{a}");
        // Virtual backoff totals are deterministic and survive stripping.
        assert!(a.contains("\"backoff_ns\""), "{a}");
    }

    #[test]
    fn crawl_reports_transport_counters() {
        let dir = std::env::temp_dir().join("squatphi-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("crawl-zone.txt");
        std::fs::write(
            &path,
            "faceb00k.pw.\t300\tIN\tA\t203.0.113.1\n\
             paypal-cash.com.\t300\tIN\tA\t203.0.113.3\n\
             pepper-garden.net.\t300\tIN\tA\t203.0.113.4\n",
        )
        .expect("write");
        let crawl = |chaos: FaultPlan| {
            run(&Command::Crawl {
                path: path.to_string_lossy().into_owned(),
                // Single-flight so the chaos schedule is order-free and
                // the byte-identical assertion below cannot race.
                threads: 1,
                retries: 1,
                plan: chaos,
                seed: 3,
                json: false,
                timings: false,
            })
            .expect("runs")
        };
        let out = crawl(FaultPlan::none());
        assert!(out.contains("crawling 2 squatting domains"), "{out}");
        assert!(out.contains("transport:"), "{out}");
        assert!(out.contains("attempts"), "{out}");
        // Injected faults show up in the transport counters.
        let chaotic = crawl(FaultPlan::fail_every(2));
        assert!(chaotic.contains("injected"), "{chaotic}");
        // Same seed, same plan => byte-identical report.
        assert_eq!(chaotic, crawl(FaultPlan::fail_every(2)));
    }

    #[test]
    fn watch_reports_and_is_deterministic() {
        let cmd = |json| Command::Watch {
            seed: 11,
            events: 200,
            brands: 12,
            threads: 2,
            stop_after: None,
            checkpoint_dir: None,
            resume: false,
            disk_faults: DiskFaultPlan::none(),
            json,
            timings: false,
        };
        let out = run(&cmd(false)).expect("runs");
        assert!(out.contains("watch: seed 11 over 200 events"), "{out}");
        assert!(out.contains("reconciled"), "{out}");
        assert!(out.contains("state fingerprint:"), "{out}");
        // JSON mode is byte-identical across runs (the CI gate).
        let a = run(&cmd(true)).expect("runs");
        let b = run(&cmd(true)).expect("runs");
        assert_eq!(a, b);
        assert!(a.contains("\"reconciles\": true"), "{a}");
    }

    #[test]
    fn watch_stop_after_then_resume_matches_full_run() {
        let dir = std::env::temp_dir().join(format!("squatphi-cli-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = |stop_after, checkpoint_dir, resume| Command::Watch {
            seed: 11,
            events: 200,
            brands: 12,
            threads: 2,
            stop_after,
            checkpoint_dir,
            resume,
            disk_faults: DiskFaultPlan::none(),
            json: true,
            timings: false,
        };
        let full = run(&base(None, None, false)).expect("full run");
        let stopped = run(&base(
            Some(80),
            Some(dir.to_string_lossy().into_owned()),
            false,
        ))
        .expect("interrupted run");
        assert!(stopped.contains("\"interrupted\": true"), "{stopped}");
        let resumed =
            run(&base(None, Some(dir.to_string_lossy().into_owned()), true)).expect("resumed run");
        assert_eq!(resumed, full, "resume diverged from the full run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_resume_after_torn_checkpoints_is_a_structured_error() {
        let dir =
            std::env::temp_dir().join(format!("squatphi-cli-watch-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = |resume: bool, disk_faults| Command::Watch {
            seed: 11,
            events: 200,
            brands: 12,
            threads: 2,
            stop_after: (!resume).then_some(80),
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            resume,
            disk_faults,
            json: true,
            timings: false,
        };
        // Torn writes are silent: the interrupted run still completes, but
        // every checkpoint generation it left behind is damaged.
        let torn = DiskFaultPlan::parse("torn-at-byte-60").unwrap();
        run(&base(false, torn)).expect("torn writes do not fail the run");
        // Resuming against the all-damaged store is a structured error, not
        // a silent recompute.
        let err = run(&base(true, DiskFaultPlan::none())).unwrap_err();
        assert!(err.contains("unrecoverable"), "{err}");
        assert!(err.contains("watch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_produces_ascii() {
        let dir = std::env::temp_dir().join("squatphi-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("page.html");
        std::fs::write(&path, "<html><body><h1>paypal</h1></body></html>").expect("write");
        let out = run(&Command::Render {
            path: path.to_string_lossy().into_owned(),
            width: 40,
        })
        .expect("runs");
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn missing_files_error_cleanly() {
        assert!(run(&Command::Scan {
            path: "/nonexistent/zone".into(),
            type_filter: None,
            threads: 1,
            json: false,
            timings: false
        })
        .is_err());
        assert!(run(&Command::Render {
            path: "/nonexistent/page".into(),
            width: 40
        })
        .is_err());
    }
}
