//! Argument parsing for the `squatphi` binary (std-only, no clap).

use squatphi::DiskFaultPlan;
use squatphi_crawler::{FaultPlan, FetchClass};

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `squatphi gen <brand> [--limit N]` — candidate squatting domains.
    Gen {
        /// Brand label to generate for.
        brand: String,
        /// Max candidates per squatting type.
        limit: usize,
    },
    /// `squatphi classify <domain>...` — squatting classification.
    Classify {
        /// Domains to classify.
        domains: Vec<String>,
    },
    /// `squatphi scan <zonefile> [--type TYPE] [--threads N] [--json]
    /// [--timings]` — scan a zone file for squatting domains.
    Scan {
        /// Zone file path.
        path: String,
        /// Only print matches of this type (paper name, e.g. `Combo`).
        type_filter: Option<String>,
        /// Scan worker threads.
        threads: usize,
        /// Emit the telemetry snapshot as JSON instead of the report.
        json: bool,
        /// Keep wall-clock timing values in the JSON (breaks two-run
        /// byte-identity, so it is opt-in).
        timings: bool,
    },
    /// `squatphi crawl <zonefile> [--threads N] [--retries N]
    /// [--chaos MODE[:CLASS]] [--seed N] [--json] [--timings]` — scan a
    /// zone file, rebuild the web world for the matches, and crawl it
    /// through the full transport middleware stack (optionally under
    /// fault injection).
    Crawl {
        /// Zone file path.
        path: String,
        /// Crawl worker threads.
        threads: usize,
        /// Engine-level retry budget.
        retries: usize,
        /// Fault-injection plan for the chaos layer.
        plan: FaultPlan,
        /// World + chaos seed.
        seed: u64,
        /// Emit the telemetry snapshot as JSON instead of the report.
        json: bool,
        /// Keep wall-clock timing values in the JSON (opt-in).
        timings: bool,
    },
    /// `squatphi page <file.html> [--brand LABEL]` — audit one page:
    /// forms, OCR text, JS indicators, evasion vs the brand page, and a
    /// phishing score.
    Page {
        /// HTML file path.
        path: String,
        /// Brand to measure evasion against.
        brand: Option<String>,
    },
    /// `squatphi render <file.html> [--width N]` — ASCII screenshot.
    Render {
        /// HTML file path.
        path: String,
        /// Output columns.
        width: usize,
    },
    /// `squatphi conformance [--seed N] [--budget ci|full] [--json]
    /// [--timings] [--report FILE]` — run the seeded conformance oracles
    /// (generator↔detector differential, codec round trips, never-panic
    /// fuzzing).
    Conformance {
        /// Seed for the randomized oracle halves.
        seed: u64,
        /// Budget name (`ci` | `full`).
        budget: String,
        /// Emit the machine-readable JSON summary instead of the table.
        json: bool,
        /// Include per-oracle wall-clock nanos (breaks byte-for-byte
        /// determinism between runs, so it is opt-in).
        timings: bool,
        /// Also write the (timing-free) JSON report to this file — set
        /// regardless of pass/fail so CI can upload shrunk inputs.
        report: Option<String>,
    },
    /// `squatphi watch [--seed N] [--events N] [--brands N] [--threads N]
    /// [--stop-after N] [--checkpoint DIR] [--resume]
    /// [--disk-faults SPEC] [--disk-fault-seed N] [--json]` — run the
    /// streaming detection daemon over the seeded registration feed.
    Watch {
        /// Stream + world seed.
        seed: u64,
        /// Total feed events to consume.
        events: u64,
        /// Monitored brands.
        brands: usize,
        /// Accepted and validated; the watch loop is single-threaded.
        threads: usize,
        /// Stop once this many events have been injected (checkpointing
        /// first when `--checkpoint` is set).
        stop_after: Option<u64>,
        /// Watermark checkpoint directory.
        checkpoint_dir: Option<String>,
        /// Resume from the watermark checkpoint.
        resume: bool,
        /// Seeded disk-fault plan injected under the checkpoint store.
        disk_faults: DiskFaultPlan,
        /// Emit the machine-readable JSON summary instead of the report.
        json: bool,
        /// Keep wall-clock timing values in the JSON (opt-in; virtual
        /// `backoff_ns` totals are deterministic and always included).
        timings: bool,
    },
    /// `squatphi help`.
    Help,
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text.
pub const USAGE: &str = "\
squatphi — squatting-phishing tooling (IMC '18 reproduction)

USAGE:
  squatphi gen <brand> [--limit N]          candidate squatting domains
  squatphi classify <domain>...             classify domains against 702 brands
  squatphi scan <zone-file> [--type T] [--threads N] [--json] [--timings]
                                            scan a zone file for squatting
  squatphi crawl <zone-file> [--threads N] [--retries N]
                 [--chaos MODE[:CLASS]] [--seed N] [--json] [--timings]
                                            scan, then crawl the matches through
                                            the fault-tolerant transport stack
                                            (MODE: none | first-K | every-K |
                                            permille-P; CLASS: timeout | refused |
                                            truncated | injected)
  squatphi page <file.html> [--brand L]     audit a page (forms/OCR/JS/score)
  squatphi render <file.html> [--width N]   ASCII screenshot of a page
  squatphi conformance [--seed N] [--budget ci|full] [--json] [--timings]
                       [--report FILE]
                                            run the seeded conformance oracles
                                            (differential, round-trip, fuzz);
                                            exits non-zero on any violation
  squatphi watch [--seed N] [--events N] [--brands N] [--threads N]
                 [--stop-after N] [--checkpoint DIR] [--resume]
                 [--disk-faults SPEC] [--disk-fault-seed N] [--json]
                 [--timings]
                                            streaming detection daemon: ingest
                                            the seeded registration feed through
                                            bounded detect + re-crawl stages
                                            with watermark checkpoints
                                            (SPEC: comma-separated torn-at-byte-N |
                                            bitflip-permille-P | enospc-after-N |
                                            crash-at-write-K clauses, or none)
  squatphi help                             this text

Every --json surface strips wall-clock timing values by default (one
telemetry-layer rule), so two identical runs emit byte-identical JSON;
pass --timings to keep them.
";

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => {
            let mut brand = None;
            let mut limit = 10usize;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--limit" => {
                        i += 1;
                        limit = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--limit needs a positive integer"))?;
                    }
                    other if brand.is_none() => brand = Some(other.to_string()),
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Gen {
                brand: brand.ok_or_else(|| err("gen needs a brand label"))?,
                limit,
            })
        }
        "classify" => {
            let domains: Vec<String> = it.cloned().collect();
            if domains.is_empty() {
                return Err(err("classify needs at least one domain"));
            }
            Ok(Command::Classify { domains })
        }
        "scan" => {
            let mut path = None;
            let mut type_filter = None;
            let mut threads = 8usize;
            let mut json = false;
            let mut timings = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--type" => {
                        i += 1;
                        type_filter = Some(
                            rest.get(i)
                                .ok_or_else(|| err("--type needs a value"))?
                                .to_string(),
                        );
                    }
                    "--threads" => {
                        i += 1;
                        threads = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--threads needs a positive integer"))?;
                    }
                    "--json" => json = true,
                    "--timings" => timings = true,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Scan {
                path: path.ok_or_else(|| err("scan needs a zone-file path"))?,
                type_filter,
                threads: threads.max(1),
                json,
                timings,
            })
        }
        "crawl" => {
            let mut path = None;
            let mut threads = 8usize;
            let mut retries = 1usize;
            let mut chaos: Option<String> = None;
            let mut seed = 0u64;
            let mut json = false;
            let mut timings = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--threads" => {
                        i += 1;
                        threads = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err("--threads needs a positive integer"))?;
                    }
                    "--retries" => {
                        i += 1;
                        retries = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--retries needs a non-negative integer"))?;
                    }
                    "--chaos" => {
                        i += 1;
                        chaos = Some(
                            rest.get(i)
                                .ok_or_else(|| err("--chaos needs MODE[:CLASS]"))?
                                .to_string(),
                        );
                    }
                    "--seed" => {
                        i += 1;
                        seed = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--seed needs an integer"))?;
                    }
                    "--json" => json = true,
                    "--timings" => timings = true,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            let plan = parse_fault_plan(chaos.as_deref().unwrap_or("none"), seed)?;
            Ok(Command::Crawl {
                path: path.ok_or_else(|| err("crawl needs a zone-file path"))?,
                threads,
                retries,
                plan,
                seed,
                json,
                timings,
            })
        }
        "page" => {
            let mut path = None;
            let mut brand = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--brand" => {
                        i += 1;
                        brand = Some(
                            rest.get(i)
                                .ok_or_else(|| err("--brand needs a label"))?
                                .to_string(),
                        );
                    }
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Page {
                path: path.ok_or_else(|| err("page needs an HTML file path"))?,
                brand,
            })
        }
        "render" => {
            let mut path = None;
            let mut width = 80usize;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--width" => {
                        i += 1;
                        width = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--width needs a positive integer"))?;
                    }
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Render {
                path: path.ok_or_else(|| err("render needs an HTML file path"))?,
                width: width.max(8),
            })
        }
        "conformance" => {
            let mut seed = 1u64;
            let mut budget = "ci".to_string();
            let mut json = false;
            let mut timings = false;
            let mut report = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--seed" => {
                        i += 1;
                        seed = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--seed needs an integer"))?;
                    }
                    "--budget" => {
                        i += 1;
                        budget = rest
                            .get(i)
                            .ok_or_else(|| err("--budget needs a value (ci | full)"))?
                            .to_string();
                    }
                    "--json" => json = true,
                    "--timings" => timings = true,
                    "--report" => {
                        i += 1;
                        report = Some(
                            rest.get(i)
                                .ok_or_else(|| err("--report needs a file path"))?
                                .to_string(),
                        );
                    }
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Conformance {
                seed,
                budget,
                json,
                timings,
                report,
            })
        }
        "watch" => {
            let mut seed = 20180401u64;
            let mut events = 2000u64;
            let mut brands = 40usize;
            let mut threads = 4usize;
            let mut stop_after = None;
            let mut checkpoint_dir = None;
            let mut resume = false;
            let mut disk_faults_spec: Option<String> = None;
            let mut disk_fault_seed = 0u64;
            let mut json = false;
            let mut timings = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--seed" => {
                        i += 1;
                        seed = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--seed needs an integer"))?;
                    }
                    "--events" => {
                        i += 1;
                        events = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err("--events needs a positive integer"))?;
                    }
                    "--brands" => {
                        i += 1;
                        brands = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err("--brands needs a positive integer"))?;
                    }
                    "--threads" => {
                        i += 1;
                        threads = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n > 0)
                            .ok_or_else(|| err("--threads needs a positive integer"))?;
                    }
                    "--stop-after" => {
                        i += 1;
                        stop_after = Some(
                            rest.get(i)
                                .and_then(|s| s.parse().ok())
                                .filter(|&n| n > 0)
                                .ok_or_else(|| err("--stop-after needs a positive integer"))?,
                        );
                    }
                    "--checkpoint" => {
                        i += 1;
                        checkpoint_dir = Some(
                            rest.get(i)
                                .ok_or_else(|| err("--checkpoint needs a directory"))?
                                .to_string(),
                        );
                    }
                    "--resume" => resume = true,
                    "--disk-faults" => {
                        i += 1;
                        disk_faults_spec = Some(
                            rest.get(i)
                                .ok_or_else(|| err("--disk-faults needs a plan spec"))?
                                .to_string(),
                        );
                    }
                    "--disk-fault-seed" => {
                        i += 1;
                        disk_fault_seed = rest
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("--disk-fault-seed needs an integer"))?;
                    }
                    "--json" => json = true,
                    "--timings" => timings = true,
                    other => return Err(err(format!("unexpected argument {other:?}"))),
                }
                i += 1;
            }
            if resume && checkpoint_dir.is_none() {
                return Err(err("--resume requires --checkpoint DIR"));
            }
            let disk_faults = DiskFaultPlan::parse(disk_faults_spec.as_deref().unwrap_or("none"))
                .map_err(|e| err(format!("--disk-faults: {e}")))?
                .with_seed(disk_fault_seed);
            if !disk_faults.is_none() && checkpoint_dir.is_none() {
                return Err(err("--disk-faults requires --checkpoint DIR"));
            }
            Ok(Command::Watch {
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
            })
        }
        other => Err(err(format!(
            "unknown subcommand {other:?} (try `squatphi help`)"
        ))),
    }
}

/// Parses a `--chaos` spec — `MODE[:CLASS]` where MODE is `none`,
/// `first-K`, `every-K` or `permille-P` and CLASS is a
/// [`FetchClass`] name (default `injected`).
fn parse_fault_plan(spec: &str, seed: u64) -> Result<FaultPlan, CliError> {
    let (mode, class) = match spec.split_once(':') {
        Some((m, c)) => (
            m,
            FetchClass::parse(c)
                .ok_or_else(|| err(format!("unknown error class {c:?} in --chaos")))?,
        ),
        None => (spec, FetchClass::Injected),
    };
    let plan = if mode == "none" {
        FaultPlan::none()
    } else if let Some(k) = mode.strip_prefix("first-") {
        FaultPlan::fail_first(
            k.parse()
                .map_err(|_| err("--chaos first-K needs an integer K"))?,
        )
    } else if let Some(k) = mode.strip_prefix("every-") {
        FaultPlan::fail_every(
            k.parse()
                .map_err(|_| err("--chaos every-K needs an integer K >= 1"))?,
        )
    } else if let Some(p) = mode.strip_prefix("permille-") {
        FaultPlan::fail_permille(
            p.parse()
                .map_err(|_| err("--chaos permille-P needs an integer P in 0..=1000"))?,
        )
    } else {
        return Err(err(format!(
            "unknown --chaos mode {mode:?} (none | first-K | every-K | permille-P)"
        )));
    };
    Ok(plan.with_class(class).with_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_gen() {
        assert_eq!(
            parse_args(&args("gen facebook --limit 5")).unwrap(),
            Command::Gen {
                brand: "facebook".into(),
                limit: 5
            }
        );
        assert_eq!(
            parse_args(&args("gen paypal")).unwrap(),
            Command::Gen {
                brand: "paypal".into(),
                limit: 10
            }
        );
        assert!(parse_args(&args("gen")).is_err());
        assert!(parse_args(&args("gen a b")).is_err());
    }

    #[test]
    fn parses_classify() {
        assert_eq!(
            parse_args(&args("classify faceb00k.pw goofle.com.ua")).unwrap(),
            Command::Classify {
                domains: vec!["faceb00k.pw".into(), "goofle.com.ua".into()]
            }
        );
        assert!(parse_args(&args("classify")).is_err());
    }

    #[test]
    fn parses_scan() {
        assert_eq!(
            parse_args(&args("scan zone.txt --type Combo --threads 4")).unwrap(),
            Command::Scan {
                path: "zone.txt".into(),
                type_filter: Some("Combo".into()),
                threads: 4,
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args("scan zone.txt --json --timings")).unwrap(),
            Command::Scan {
                path: "zone.txt".into(),
                type_filter: None,
                threads: 8,
                json: true,
                timings: true
            }
        );
        assert!(parse_args(&args("scan --type Combo")).is_err());
    }

    #[test]
    fn parses_crawl() {
        assert_eq!(
            parse_args(&args("crawl zone.txt")).unwrap(),
            Command::Crawl {
                path: "zone.txt".into(),
                threads: 8,
                retries: 1,
                plan: FaultPlan::none(),
                seed: 0,
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args(
                "crawl zone.txt --threads 4 --retries 0 --chaos every-2:timeout --seed 9 \
                 --json --timings"
            ))
            .unwrap(),
            Command::Crawl {
                path: "zone.txt".into(),
                threads: 4,
                retries: 0,
                plan: FaultPlan::fail_every(2)
                    .with_class(FetchClass::Timeout)
                    .with_seed(9),
                seed: 9,
                json: true,
                timings: true
            }
        );
        assert!(parse_args(&args("crawl")).is_err());
        assert!(parse_args(&args("crawl zone.txt --threads 0")).is_err());
        assert!(parse_args(&args("crawl zone.txt --chaos bogus")).is_err());
        assert!(parse_args(&args("crawl zone.txt --chaos first-1:nonsense")).is_err());
    }

    #[test]
    fn fault_plan_spec_roundtrips() {
        assert_eq!(parse_fault_plan("none", 0).unwrap(), FaultPlan::none());
        assert_eq!(
            parse_fault_plan("first-3", 1).unwrap(),
            FaultPlan::fail_first(3).with_seed(1)
        );
        assert_eq!(
            parse_fault_plan("permille-250:truncated", 7).unwrap(),
            FaultPlan::fail_permille(250)
                .with_class(FetchClass::Truncated)
                .with_seed(7)
        );
        assert!(parse_fault_plan("every-x", 0).is_err());
    }

    #[test]
    fn parses_page_and_render() {
        assert_eq!(
            parse_args(&args("page p.html --brand paypal")).unwrap(),
            Command::Page {
                path: "p.html".into(),
                brand: Some("paypal".into())
            }
        );
        assert_eq!(
            parse_args(&args("render p.html --width 60")).unwrap(),
            Command::Render {
                path: "p.html".into(),
                width: 60
            }
        );
        assert!(parse_args(&args("render --width 60")).is_err());
    }

    #[test]
    fn parses_conformance() {
        assert_eq!(
            parse_args(&args("conformance")).unwrap(),
            Command::Conformance {
                seed: 1,
                budget: "ci".into(),
                json: false,
                timings: false,
                report: None
            }
        );
        assert_eq!(
            parse_args(&args(
                "conformance --seed 7 --budget full --json --timings --report out.json"
            ))
            .unwrap(),
            Command::Conformance {
                seed: 7,
                budget: "full".into(),
                json: true,
                timings: true,
                report: Some("out.json".into())
            }
        );
        assert!(parse_args(&args("conformance --seed")).is_err());
        assert!(parse_args(&args("conformance bogus")).is_err());
    }

    #[test]
    fn parses_watch() {
        assert_eq!(
            parse_args(&args("watch")).unwrap(),
            Command::Watch {
                seed: 20180401,
                events: 2000,
                brands: 40,
                threads: 4,
                stop_after: None,
                checkpoint_dir: None,
                resume: false,
                disk_faults: DiskFaultPlan::none(),
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args(
                "watch --seed 7 --events 500 --brands 12 --threads 2 \
                 --stop-after 100 --checkpoint ckpt --resume --json --timings"
            ))
            .unwrap(),
            Command::Watch {
                seed: 7,
                events: 500,
                brands: 12,
                threads: 2,
                stop_after: Some(100),
                checkpoint_dir: Some("ckpt".into()),
                resume: true,
                disk_faults: DiskFaultPlan::none(),
                json: true,
                timings: true
            }
        );
        assert!(parse_args(&args("watch --events 0")).is_err());
        assert!(parse_args(&args("watch --resume")).is_err());
        assert!(parse_args(&args("watch --stop-after")).is_err());
        assert!(parse_args(&args("watch bogus")).is_err());
    }

    #[test]
    fn parses_watch_disk_faults() {
        let cmd = parse_args(&args(
            "watch --checkpoint ckpt --disk-faults torn-at-byte-60,crash-at-write-2 \
             --disk-fault-seed 9",
        ))
        .unwrap();
        let Command::Watch { disk_faults, .. } = cmd else {
            panic!("parsed a non-watch command");
        };
        assert_eq!(
            disk_faults,
            DiskFaultPlan::parse("torn-at-byte-60,crash-at-write-2")
                .unwrap()
                .with_seed(9)
        );
        // Bad clauses are rejected with the offending clause named.
        let e = parse_args(&args("watch --checkpoint ckpt --disk-faults melt-cpu-5")).unwrap_err();
        assert!(e.0.contains("melt-cpu-5"), "{e}");
        // Disk faults only act on the checkpoint store, so they require one.
        assert!(parse_args(&args("watch --disk-faults torn-at-byte-60")).is_err());
        assert!(parse_args(&args("watch --disk-faults")).is_err());
        assert!(parse_args(&args("watch --disk-fault-seed x")).is_err());
    }

    #[test]
    fn help_and_unknown() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert!(parse_args(&args("bogus")).is_err());
    }
}
