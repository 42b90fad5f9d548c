//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything, default 1/100 haystack scale
//! repro table7 fig10        # specific experiments
//! repro --scale 400 all     # faster, smaller haystack
//! repro --json out.json all # also dump a machine-readable summary
//! repro --list              # list experiment ids
//! ```
//!
//! Crash-safety flags (see DESIGN.md §10):
//!
//! ```text
//! repro --checkpoint-dir ckpt all        # persist stage outputs
//! repro --checkpoint-dir ckpt --resume … # replay completed stages
//! repro --stop-after crawl …             # deterministic kill stand-in
//! repro --faults panic-permille-50 …     # seeded fault injection
//! repro --disk-faults torn-at-byte-40 …  # seeded disk faults under the
//!                                        # checkpoint store (DESIGN.md §16)
//! repro --fail-fast …                    # first panic aborts the run
//! repro --timings …                      # keep nanos in --json output
//! ```

use squatphi::{DiskFaultPlan, PipelineFaultPlan, PipelineStage, RunOptions, SimConfig, SquatPhi};
use squatphi_experiments::summary::RunSummary;
use squatphi_experiments::{run_experiment, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 100usize;
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut opts = RunOptions::default();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut disk_fault_spec: Option<String> = None;
    let mut disk_fault_seed: Option<u64> = None;
    let mut timings = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                return;
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
                if scale == 0 {
                    die("--scale must be >= 1")
                }
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
                if n == 0 {
                    die("--threads must be >= 1")
                }
                threads = Some(n);
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--json needs an output path")),
                );
            }
            "--checkpoint-dir" => {
                i += 1;
                let dir = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--checkpoint-dir needs a directory path"));
                opts.checkpoint_dir = Some(dir.into());
            }
            "--resume" => opts.resume = true,
            "--fail-fast" => opts.fail_fast = true,
            "--faults" => {
                i += 1;
                fault_spec = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--faults needs a plan spec")),
                );
            }
            "--fault-seed" => {
                i += 1;
                fault_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--fault-seed needs an integer")),
                );
            }
            "--disk-faults" => {
                i += 1;
                disk_fault_spec = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--disk-faults needs a plan spec")),
                );
            }
            "--disk-fault-seed" => {
                i += 1;
                disk_fault_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--disk-fault-seed needs an integer")),
                );
            }
            "--stop-after" => {
                i += 1;
                let name = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--stop-after needs a stage name"));
                opts.stop_after =
                    Some(PipelineStage::parse(&name).unwrap_or_else(|| {
                        die("--stop-after expects scan, crawl, train or detect")
                    }));
            }
            "--timings" => timings = true,
            "all" => ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect(),
            other if EXPERIMENT_IDS.contains(&other) => ids.push(other.to_string()),
            other => die(&format!(
                "unknown argument {other:?} (use --list to see experiment ids)"
            )),
        }
        i += 1;
    }
    if let Some(spec) = fault_spec {
        opts.faults = PipelineFaultPlan::parse(&spec)
            .unwrap_or_else(|e| die(&format!("bad --faults plan: {e}")));
    }
    if let Some(seed) = fault_seed {
        opts.faults = opts.faults.with_seed(seed);
    }
    if let Some(spec) = disk_fault_spec {
        opts.disk_faults = DiskFaultPlan::parse(&spec)
            .unwrap_or_else(|e| die(&format!("bad --disk-faults plan: {e}")));
    }
    if let Some(seed) = disk_fault_seed {
        opts.disk_faults = opts.disk_faults.with_seed(seed);
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        die("--resume requires --checkpoint-dir");
    }
    if !opts.disk_faults.is_none() && opts.checkpoint_dir.is_none() {
        die("--disk-faults requires --checkpoint-dir (they act on the checkpoint store)");
    }
    if ids.is_empty() && json_path.is_none() && opts.stop_after.is_none() {
        die("nothing to run: pass experiment ids or `all`");
    }

    eprintln!("[repro] running pipeline at 1/{scale} haystack scale …");
    let started = std::time::Instant::now();
    let mut config = SimConfig::paper_scale(scale);
    if let Some(n) = threads {
        config.threads = n;
    }
    let result = match SquatPhi::try_run(&config, &opts) {
        Ok(result) => result,
        Err(e) if e.is_interrupted() && opts.stop_after.is_some() => {
            // A requested interruption is a success: the checkpoints for
            // every completed stage are on disk.
            eprintln!(
                "[repro] stopped after the {} stage as requested ({:.1}s)",
                e.stage,
                started.elapsed().as_secs_f64(),
            );
            return;
        }
        Err(e) => {
            eprintln!("[repro] pipeline failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[repro] pipeline done in {:.1}s: {} DNS records scanned, {} squatting domains, {} confirmed phishing domains",
        started.elapsed().as_secs_f64(),
        result.scan.scanned,
        result.scan.total_matches(),
        result.confirmed_domains().len(),
    );
    let t = &result.timings;
    eprintln!(
        "[repro] stage timings: scan {:.2}s, crawl {:.2}s, train {:.2}s, detect {:.2}s (total {:.2}s)",
        t.scan.as_secs_f64(),
        t.crawl.as_secs_f64(),
        t.train.as_secs_f64(),
        t.detect.as_secs_f64(),
        t.total().as_secs_f64(),
    );
    eprintln!(
        "[repro] crawl transport: {}",
        result.crawl_stats.transport.report_line()
    );
    eprintln!("[repro] page analysis: {}", result.analysis.report_line());
    eprintln!("[repro] supervision: {}", result.supervision.report_line());
    if opts.checkpoint_dir.is_some() {
        eprintln!("[repro] durability: {}", result.durability.report_line());
    }
    eprintln!(
        "[repro] training set: {} phishing / {} benign",
        result.train_split.0, result.train_split.1
    );
    let m = &result.scan_metrics;
    eprintln!(
        "[repro] scan: {:.0} records/s over {} blocks on {} workers, {} probes ({} past filter), {} allocations avoided, {} dedupe collisions",
        m.records_per_sec(),
        m.blocks,
        m.requested_workers,
        m.probes(),
        m.deep_probes(),
        m.allocations_avoided(),
        m.dedupe_collisions,
    );

    for id in &ids {
        match run_experiment(id, &result) {
            Some(text) => {
                println!("{text}");
            }
            None => eprintln!("[repro] unknown experiment {id}"),
        }
    }

    if let Some(path) = json_path {
        let mut summary = RunSummary::collect(&result);
        if !timings {
            // Keep the summary byte-reproducible across runs of the same
            // config (the CI resume smoke `cmp`s two of them).
            summary.strip_timings();
        }
        if let Err(e) = std::fs::write(&path, summary.to_json_pretty()) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!("[repro] summary written to {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
