//! The six workloads and the harness that runs them.
//!
//! Load is a closed loop with one caller in one process: the next pass
//! starts when the previous one returns. Inputs are made from the seed in
//! set-up and handed to the program as data; the program's public
//! functions are called with `threads = 2` everywhere.

pub mod haystack_scan;
pub mod page_audit;
pub mod repro_batch;
pub mod visual_lookup;
pub mod watch_durable;
pub mod watch_stream;

use crate::spec::{self, SETUP_MAX_REPS, SETUP_MIN_S, SETUP_REPS};
use crate::stats::median;
use crate::sys;
use crate::tracer::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined on.
    Full,
    /// Sizes small enough for `cargo test`: every call and check of the
    /// full run, none of its timing value.
    Smoke,
}

impl Scale {
    /// `full` unless smoke.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked (passes, pages, queries, records, events).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// One operation that must hold.
    pub fn require(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }
}

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Named numbers a workload reports beside the contract's metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// One workload: inputs from a seed, a timed pass, and its checks.
pub trait Workload: Sized {
    /// Name as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// What a pass returns (dropped outside the timed section).
    type Raw;
    /// What is kept of a pass.
    type Pass;

    /// Builds the inputs. Timed: its median wall is `setup_s`.
    fn setup(seed: u64, scale: Scale) -> Self;
    /// `artifact::content_key` over the generated input, so two commits
    /// can be shown to have measured the same bytes.
    fn input_digest(&self) -> u64;
    /// Input sizes, for the report.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// One pass: only calls into the program and the clock reads around
    /// them. Timed as a whole.
    fn pass(&self, tr: &mut Tracer) -> Self::Raw;
    /// Checks one pass and reduces it to what later steps need. Not timed.
    fn inspect(&self, raw: Self::Raw, checks: &mut Checks) -> Self::Pass;
    /// Items (pages, records, queries, events) one pass handled.
    fn items(&self, pass: &Self::Pass) -> u64;
    /// Checks across passes, and the workload's own numbers (printed for
    /// people; not part of the result line).
    fn finish(&self, passes: &[Self::Pass], checks: &mut Checks, detail: &mut Metrics);
    /// Traced run only: times calls into each layer this workload rests
    /// on and sets every per-layer metric the workload owns.
    fn layers(
        &self,
        tr: &mut Tracer,
        traced: &Self::Pass,
        checks: &mut Checks,
        layers: &mut Metrics,
    );
}

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Digest of the generated input.
    pub input_digest: u64,
    /// Input sizes.
    pub sizes: Vec<(&'static str, u64)>,
    /// Wall seconds of each measured pass, in order.
    pub pass_walls: Vec<f64>,
    /// CPU seconds (user + system) of each measured pass, in order.
    pub pass_cpus: Vec<f64>,
    /// Checks.
    pub checks: Checks,
    /// The contract's metrics: end-to-end ones for an untraced run,
    /// per-layer ones for a traced run, each in `spec` order.
    pub metrics: Vec<Metric>,
    /// The workload's own numbers (untraced run).
    pub detail: Vec<Metric>,
    /// Where the trace was written; `None` for an untraced run.
    pub trace_file: Option<PathBuf>,
}

/// Untraced run: set-up at least [`SETUP_REPS`] times (`setup_s` is the median),
/// then passes in a closed loop until `seconds` have been measured
/// (`wall_s` is the fastest).
pub fn run<W: Workload>(args: RunArgs) -> Report {
    // A set-up of milliseconds is repeated for SETUP_MIN_S, so that its
    // median repeats from run to run as that of a long one does.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    let setting_up = Instant::now();
    while setups.len() < SETUP_REPS
        || (setting_up.elapsed().as_secs_f64() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        // Drop the previous copy first so peak memory holds one input.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(args.seed, args.scale));
        setups.push(t.elapsed().as_secs_f64());
    }
    let w = workload.expect("SETUP_REPS >= 1");

    let mut checks = Checks::default();
    let mut tr = Tracer::off();
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    let mut cpus = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let cpu0 = sys::cpu_s();
        let t = Instant::now();
        let raw = w.pass(&mut tr);
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(sys::cpu_s() - cpu0);
        passes.push(w.inspect(raw, &mut checks));
    }
    let mut detail = Metrics::default();
    w.finish(&passes, &mut checks, &mut detail);

    // The fastest pass, not the median one: on a shared host other
    // tenants slow memory-bound code by 1.3-1.5x for seconds to minutes
    // at a time (and thread hand-offs by far more), so the median pass
    // of a 12 s run mostly reports the neighbours. Interference only
    // ever adds time; the fastest pass is the repeatable estimate of
    // what the code costs. README.md has the measurements.
    let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let wall_s = fastest(&walls);
    let items = w.items(&passes[0]);
    let mut metrics = Metrics::default();
    for m in &spec::END_TO_END {
        let value = match m.name {
            "setup_s" => median(&setups),
            "wall_s" => wall_s,
            "items_per_s" => items as f64 / wall_s,
            "cpu_s_per_pass" => fastest(&cpus),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        };
        metrics.set(m.name, value, m.unit);
    }
    detail.set(
        "process.peak_rss_mb",
        sys::peak_rss_mb().unwrap_or(0.0),
        "MB",
    );
    Report {
        workload: W::NAME,
        seed: args.seed,
        input_digest: w.input_digest(),
        sizes: w.sizes(),
        pass_walls: walls,
        pass_cpus: cpus,
        checks,
        metrics: metrics.0,
        detail: detail.0,
        trace_file: None,
    }
}

/// Traced run: one untraced pass, the same pass traced, then the layer
/// kernels; writes the span file and reports every per-layer metric
/// (0 for the layers this workload never enters).
pub fn trace<W: Workload>(args: RunArgs) -> Report {
    let w = W::setup(args.seed, args.scale);
    let mut checks = Checks::default();

    let cpu0 = sys::cpu_s();
    let (raw, untraced_s) = timed(|| w.pass(&mut Tracer::off()));
    let untraced_cpu = sys::cpu_s() - cpu0;
    let untraced = w.inspect(raw, &mut checks);

    let mut tr = Tracer::on();
    tr.set_pass(1);
    let cpu0 = sys::cpu_times().unwrap_or_default();
    let raw = tr.span(W::NAME, |tr| w.pass(tr));
    let cpu1 = sys::cpu_times().unwrap_or_default();
    let (user_cpu, sys_cpu) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    let traced = w.inspect(raw, &mut checks);
    let passes = [untraced, traced];
    let mut detail = Metrics::default();
    w.finish(&passes, &mut checks, &mut detail);

    // Kernels are roots of their own, marked as pass 2.
    tr.set_pass(2);
    let mut layers = Metrics::default();
    // Read before the kernels allocate: the peak of set-up and two passes.
    layers.set(
        "process.peak_rss_mb",
        sys::peak_rss_mb().unwrap_or(0.0),
        "MB",
    );
    layers.set("process.user_cpu_s", user_cpu, "s");
    layers.set("process.sys_cpu_s", sys_cpu, "s");
    w.layers(&mut tr, &passes[1], &mut checks, &mut layers);

    let root = &tr.self_times()[0];
    let root_s = root.duration_ns as f64 / 1e9;
    layers.set("trace.root_s", root_s, "s");
    layers.set("trace.self_s", root.self_ns as f64 / 1e9, "s");
    layers.set("trace.overhead_share", root_s / untraced_s - 1.0, "ratio");
    layers.set("trace.spans", tr.spans().len() as f64, "count");

    let dir = scratch_dir();
    let file = dir.join(format!("trace_{}.json", W::NAME));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tr.to_json().pretty()));
    checks.require(
        written.is_ok(),
        &format!("write {}: {written:?}", file.display()),
    );

    Report {
        workload: W::NAME,
        seed: args.seed,
        input_digest: w.input_digest(),
        sizes: w.sizes(),
        pass_walls: vec![untraced_s, root_s],
        pass_cpus: vec![untraced_cpu, user_cpu + sys_cpu],
        checks,
        metrics: per_layer_metrics(W::NAME, layers),
        detail: detail.0,
        trace_file: Some(file),
    }
}

/// Directory for files a run leaves behind (trace files, checkpoint
/// directories of `watch_durable`): `target/` of this package, which
/// the root `.gitignore` names.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/bench"))
}

/// Iterates `f` until `min_s` seconds have passed (at least once) and
/// returns seconds per iteration: for kernels too short to time once.
pub fn time_reps(min_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut reps = 0u32;
    loop {
        f();
        reps += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= min_s {
            return elapsed / reps as f64;
        }
    }
}

/// Folds `artifact::content_key` over `parts`, starting from `seed`.
pub fn digest<'a>(seed: u64, parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    parts
        .into_iter()
        .fold(seed, squatphi::artifact::content_key)
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Orders `layers` as `spec::PER_LAYER` does, filling 0 for the metrics
/// other workloads own.
fn per_layer_metrics(workload: &str, layers: Metrics) -> Vec<Metric> {
    let set: BTreeMap<String, f64> = layers.0.into_iter().map(|m| (m.name, m.value)).collect();
    for name in set.keys() {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{workload} set a per-layer metric the spec does not list: {name}"
        );
    }
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let owned = m.workload == workload || m.workload == spec::EVERY;
            let value = set.get(m.name).copied();
            assert!(
                owned == value.is_some(),
                "{workload} and per-layer metric {}: owned={owned}, measured={}",
                m.name,
                value.is_some()
            );
            Metric {
                name: m.name.to_string(),
                value: value.unwrap_or(0.0),
                unit: m.unit,
            }
        })
        .collect()
}
