//! `BENCHMARK.json` restates `spec`; this fails when they drift apart or
//! the file leaves the shape the acceptance driver reads.

use squatphi_sysbench::json::Json;
use squatphi_sysbench::spec;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn has_exactly_the_contract_keys() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(spec::DEFAULT_SECONDS)
    );
    let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::Str("sysbench".to_string())]);
}

#[test]
fn workloads_match_the_spec() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| (str_field(w, "name"), str_field(w, "why")))
        .collect();
    assert_eq!(listed, spec::WORKLOADS);
    for (name, why) in listed {
        assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn end_to_end_metrics_match_the_spec() {
    let doc = benchmark_json();
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(listed.len(), spec::END_TO_END.len());
    for (entry, m) in listed.iter().zip(&spec::END_TO_END) {
        assert_eq!(str_field(entry, "name"), m.name);
        assert_eq!(str_field(entry, "unit"), m.unit);
        assert_eq!(str_field(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(valid_name(m.name) && valid_unit(m.unit));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match_the_spec() {
    let doc = benchmark_json();
    let listed = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(listed.len(), spec::PER_LAYER.len());
    assert!(listed.len() <= 128);
    let mut seen = std::collections::HashSet::new();
    for (entry, m) in listed.iter().zip(&spec::PER_LAYER) {
        assert_eq!(str_field(entry, "name"), m.name);
        assert_eq!(str_field(entry, "unit"), m.unit);
        assert_eq!(str_field(entry, "better"), m.better.as_str());
        assert_eq!(entry.as_obj().map(<[_]>::len), Some(3));
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} listed twice", m.name);
        assert!(
            m.workload == spec::EVERY || spec::WORKLOADS.iter().any(|(w, _)| *w == m.workload),
            "{} is owned by no workload",
            m.name
        );
    }
    assert!(spec::END_TO_END.iter().all(|m| seen.insert(m.name)));
}
