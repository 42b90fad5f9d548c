//! Command line of the `bench` binary.
//!
//! ```text
//! bench [run|trace|aa|list] [--workload W] [--seed N] [--seconds S]
//!       [--trace 0|1] [--runs R] [--smoke]
//! ```
//!
//! * `run` (default) measures the end-to-end metrics with tracing off;
//!   `trace` (or `--trace 1`) makes the traced run and reports the
//!   per-layer metrics. The last line of standard output is the result
//!   object; everything for people goes to standard error.
//! * Without `--workload`, the binary runs itself once per workload, one
//!   after the other, so `peak_rss_mb` is per workload.
//! * `aa` runs every workload `2 x R` times on this build (sets A and B,
//!   alternating, run `r` of both on seed `N + r`) and judges each
//!   end-to-end metric as the acceptance procedure does.
//! * `list` prints workloads and metrics.
//!
//! There are no environment switches: sizes are constants beside each
//! workload, the rest are the arguments above.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, spread};
use crate::sys;
use crate::workloads::{
    self, haystack_scan::HaystackScan, page_audit::PageAudit, repro_batch::ReproBatch,
    visual_lookup::VisualLookup, watch_durable::WatchDurable, watch_stream::WatchStream, Report,
    RunArgs, Scale, Workload,
};
use std::process::{Command, Stdio};

/// What to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced run: end-to-end metrics.
    Run,
    /// Traced run: per-layer metrics and a span file.
    Trace,
    /// Two sets of runs of this build, compared.
    Aa,
    /// Print workloads and metrics.
    List,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// What to do.
    pub mode: Mode,
    /// One workload, or all of them.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Runs per set of `aa`.
    pub runs: usize,
    /// Input size.
    pub scale: Scale,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run,
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        runs: 10,
        scale: Scale::Full,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    let word = match it.peek().copied() {
        Some("run") => Some(Mode::Run),
        Some("trace") => Some(Mode::Trace),
        Some("aa") => Some(Mode::Aa),
        Some("list") => Some(Mode::List),
        _ => None,
    };
    if let Some(mode) = word {
        cli.mode = mode;
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag {
            "--workload" => {
                if !spec::WORKLOADS.iter().any(|(name, _)| *name == value) {
                    return Err(format!("unknown workload {value}; try `bench list`"));
                }
                cli.workload = Some(value.to_string());
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--runs" => {
                cli.runs = value.parse().map_err(|_| bad())?;
                if cli.runs < 2 {
                    return Err("--runs must be at least 2".to_string());
                }
            }
            "--trace" => match (value, cli.mode) {
                ("0", Mode::Run | Mode::Trace) => cli.mode = Mode::Run,
                ("1", Mode::Run | Mode::Trace) => cli.mode = Mode::Trace,
                ("0" | "1", _) => return Err("--trace goes with run or trace".to_string()),
                _ => return Err(bad()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, traced: bool, args: RunArgs) -> Option<Report> {
    fn go<W: Workload>(traced: bool, args: RunArgs) -> Report {
        if traced {
            workloads::trace::<W>(args)
        } else {
            workloads::run::<W>(args)
        }
    }
    Some(match name {
        ReproBatch::NAME => go::<ReproBatch>(traced, args),
        HaystackScan::NAME => go::<HaystackScan>(traced, args),
        PageAudit::NAME => go::<PageAudit>(traced, args),
        VisualLookup::NAME => go::<VisualLookup>(traced, args),
        WatchStream::NAME => go::<WatchStream>(traced, args),
        WatchDurable::NAME => go::<WatchDurable>(traced, args),
        _ => return None,
    })
}

/// The result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(report: &Report) -> Json {
    let mut metrics = Json::obj();
    for m in &report.metrics {
        let mut entry = Json::obj();
        entry.push("value", m.value).push("unit", m.unit);
        metrics.push(&m.name, entry);
    }
    let mut doc = Json::obj();
    doc.push("correct", report.checks.failed == 0)
        .push("attempted", report.checks.attempted.max(1))
        .push("failed", report.checks.failed)
        .push("metrics", metrics);
    doc
}

/// What was measured, for people: inputs and environment first, so two
/// commits can be shown to have measured the same bytes.
fn print_report(report: &Report) {
    let sizes: Vec<String> = report
        .sizes
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!(
        "[{}] seed={} input_digest={:016x} {} | nproc={} threads={} passes={} | {}",
        report.workload,
        report.seed,
        report.input_digest,
        sizes.join(" "),
        sys::nproc(),
        spec::THREADS,
        report.pass_walls.len(),
        sys::rustc_version(),
    );
    let list = |values: &[f64]| {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        shown.join(" ")
    };
    eprintln!("  pass walls (s): {}", list(&report.pass_walls));
    eprintln!("  pass cpu (s):   {}", list(&report.pass_cpus));
    let failed_share = report.checks.failed as f64 / report.checks.attempted.max(1) as f64;
    eprintln!(
        "  checks: {} attempted, {} failed, failed_share = {failed_share}",
        report.checks.attempted, report.checks.failed
    );
    for failure in &report.checks.failures {
        eprintln!("  FAILED: {failure}");
    }
    // A traced run lists every layer (skip those this workload never
    // enters) and repeats some of the workload's own numbers as metrics.
    let detail = report
        .detail
        .iter()
        .filter(|d| !report.metrics.iter().any(|m| m.name == d.name));
    let traced = report.trace_file.is_some();
    for m in detail.chain(&report.metrics) {
        if !(traced && m.value == 0.0) {
            eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    if let Some(file) = &report.trace_file {
        eprintln!("  trace written to {}", file.display());
    }
}

/// Runs this binary again with `args`; returns its parsed result line.
fn child(args: &[String], quiet: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(if quiet {
            Stdio::null()
        } else {
            Stdio::inherit()
        })
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("no result line (exit {:?})", out.status.code()))?;
    let doc = Json::parse(line)?;
    if !out.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("exit {:?}: {line}", out.status.code()));
    }
    Ok(doc)
}

fn child_args(cli: &Cli, workload: &str, seed: u64) -> Vec<String> {
    let mut args = vec![
        if cli.mode == Mode::Trace {
            "trace"
        } else {
            "run"
        }
        .to_string(),
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        cli.seconds.to_string(),
    ];
    if cli.scale == Scale::Smoke {
        args.push("--smoke".to_string());
    }
    args
}

fn list() {
    println!("workloads:");
    for (name, why) in spec::WORKLOADS {
        println!("  {name:<14} {why}");
    }
    println!("end-to-end metrics (every workload reports each; `bench run`):");
    for m in &spec::END_TO_END {
        println!(
            "  {:<16} {:<4} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    println!("per-layer metrics (`bench trace`; measured by the named workload, 0 elsewhere):");
    for m in &spec::PER_LAYER {
        println!(
            "  {:<34} {:<6} {:<6} {:<14} moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.workload,
            m.moves
        );
    }
}

/// `value` of a metric in a result line.
fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// By how much of `a` the median `b` is worse, in the metric's direction.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn aa(cli: &Cli) -> i32 {
    let workloads: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| cli.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let mut doc = Json::obj();
    doc.push("nproc", sys::nproc())
        .push("threads", spec::THREADS)
        .push("rustc", sys::rustc_version())
        .push("first_seed", cli.seed)
        .push("runs_per_set", cli.runs)
        .push("seconds", cli.seconds);
    let mut rows = Vec::new();
    let mut misses = 0;
    eprintln!(
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound"
    );
    for workload in workloads {
        // sets[0] = A, sets[1] = B: one Vec of result lines each.
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for r in 0..cli.runs {
            for set in &mut sets {
                match child(&child_args(cli, workload, cli.seed + r as u64), true) {
                    Ok(line) => set.push(line),
                    Err(e) => {
                        eprintln!("{workload} run {r}: {e}");
                        return 1;
                    }
                }
            }
        }
        for m in &spec::END_TO_END {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter().filter_map(|line| metric(line, m.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (median(&a), median(&b));
            let (spread_a, spread_b) = (spread(&a), spread(&b));
            let gap = worse_by(m.better, med_a, med_b);
            // The spread of set-up time is reported and not judged: it
            // is short, and only its median is held to the bound.
            let steady = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let ok = steady && gap.abs() <= m.bound;
            misses += usize::from(!ok);
            let verdict = if ok { "ok" } else { "MISS" };
            eprintln!(
                "{workload:<14} {:<15} {med_a:>12.5} {med_b:>12.5} {gap:>+8.4} {spread_a:>8.4} {spread_b:>8.4} {:>6}  {verdict}",
                m.name, m.bound
            );
            let mut row = Json::obj();
            row.push("workload", workload)
                .push("metric", m.name)
                .push("unit", m.unit)
                .push("median_a", med_a)
                .push("median_b", med_b)
                .push("b_worse_by", gap)
                .push("iqr_share_a", spread_a)
                .push("iqr_share_b", spread_b)
                .push("bound", m.bound)
                .push("verdict", verdict)
                .push("a", a.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>())
                .push("b", b.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>());
            rows.push(row);
        }
    }
    doc.push("misses", misses).push("table", rows);
    println!("{}", doc.pretty());
    i32::from(misses > 0)
}

/// Entry point; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench: {e}");
            return 2;
        }
    };
    match (cli.mode, &cli.workload) {
        (Mode::List, _) => {
            list();
            0
        }
        (Mode::Aa, _) => aa(&cli),
        (_, Some(name)) => {
            let args = RunArgs {
                seed: cli.seed,
                seconds: cli.seconds,
                scale: cli.scale,
            };
            let report = run_workload(name, cli.mode == Mode::Trace, args)
                .expect("parse accepted the workload name");
            print_report(&report);
            println!("{}", result_line(&report).render());
            i32::from(report.checks.failed > 0)
        }
        (_, None) => {
            let mut code = 0;
            for (name, _) in spec::WORKLOADS {
                match child(&child_args(&cli, name, cli.seed), false) {
                    Ok(line) => println!("{}", line.render()),
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        code = 1;
                    }
                }
            }
            code
        }
    }
}
