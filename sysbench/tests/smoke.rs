//! All six workloads end to end at `--smoke` size: every call and every
//! correctness check of the full run, in seconds.

use squatphi_sysbench::driver::{result_line, run_workload};
use squatphi_sysbench::json::Json;
use squatphi_sysbench::spec;
use squatphi_sysbench::workloads::{RunArgs, Scale};
use std::process::Command;

const ARGS: RunArgs = RunArgs {
    seed: 11,
    seconds: 0.2,
    scale: Scale::Smoke,
};

/// Untraced run, then traced run, of one workload.
fn smoke(workload: &str) {
    let run = run_workload(workload, false, ARGS).expect("known workload");
    assert_eq!(run.checks.failures, Vec::<String>::new());
    assert!(run.checks.attempted >= 1 && !run.pass_walls.is_empty());
    let names: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for m in &run.metrics {
        assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
    }

    let traced = run_workload(workload, true, ARGS).expect("known workload");
    assert_eq!(traced.checks.failures, Vec::<String>::new());
    assert_eq!(traced.input_digest, run.input_digest);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));

    let file = traced.trace_file.expect("a traced run writes its spans");
    let doc = Json::parse(&std::fs::read_to_string(&file).expect("trace file")).expect("json");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert_eq!(
        spans[0].get("name").and_then(Json::as_str),
        Some(workload),
        "the traced pass is the root span"
    );
    assert!(spans.len() >= 2);
}

#[test]
fn repro_batch() {
    smoke("repro_batch");
}

#[test]
fn haystack_scan() {
    smoke("haystack_scan");
}

#[test]
fn page_audit() {
    smoke("page_audit");
}

#[test]
fn visual_lookup() {
    smoke("visual_lookup");
}

#[test]
fn watch_stream() {
    smoke("watch_stream");
}

#[test]
fn watch_durable() {
    smoke("watch_durable");
}

#[test]
fn a_failed_check_fails_the_run() {
    let mut report = run_workload("visual_lookup", false, ARGS).expect("known workload");
    report.checks.ops(10, 3, "injected");
    let line = result_line(&report);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(3.0));
}

fn bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("spawn bench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The binary as the acceptance driver calls it.
#[test]
fn binary_prints_the_result_object_last() {
    let common = [
        "--workload",
        "visual_lookup",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--smoke",
    ];
    for (trace, expected) in [
        (
            "0",
            spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
        ),
        (
            "1",
            spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
        ),
    ] {
        let mut args = common.to_vec();
        args.extend(["--trace", trace]);
        let (code, stdout) = bench(&args);
        assert_eq!(code, Some(0));
        let doc = Json::parse(stdout.lines().last().expect("a result line")).expect("json");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, expected);
        for (_, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            assert!(m.get("unit").and_then(Json::as_str).is_some());
        }
    }
}

#[test]
fn binary_rejects_what_it_does_not_know() {
    assert_eq!(bench(&["--workload", "nope"]).0, Some(2));
    assert_eq!(bench(&["--frobnicate", "1"]).0, Some(2));
    assert_eq!(bench(&["aa", "--trace", "1"]).0, Some(2));
}

#[test]
fn aa_compares_two_sets_of_the_same_build() {
    let (code, stdout) = bench(&[
        "aa",
        "--workload",
        "watch_stream",
        "--runs",
        "2",
        "--seconds",
        "0.1",
        "--smoke",
    ]);
    // Smoke-size timings are noise, so the verdict may go either way.
    assert!(matches!(code, Some(0 | 1)));
    let doc = Json::parse(&stdout).expect("aa prints one json document");
    let table = doc.get("table").and_then(Json::as_arr).expect("table");
    assert_eq!(table.len(), spec::END_TO_END.len());
    for row in table {
        for key in ["median_a", "median_b", "b_worse_by", "bound", "verdict"] {
            assert!(row.get(key).is_some(), "row lacks {key}");
        }
    }
}
