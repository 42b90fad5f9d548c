//! Self-time and coverage arithmetic on a hand-built span tree.

use squatphi_sysbench::json::Json;
use squatphi_sysbench::tracer::Tracer;
use std::time::Duration;

/// ```text
/// root            0 ......................... 100
///   a               10 ..... 40
///     a1               15 . 25
///   b                     30 ....... 60        (overlaps a by 10)
///   c                                  90 ... 120  (overruns root by 20)
/// ```
fn tree() -> (Tracer, [u32; 5]) {
    let mut tr = Tracer::on();
    let root = tr.record(None, "root", 0, 100);
    let a = tr.record(Some(root), "layer.a", 10, 40);
    let a1 = tr.record(Some(a), "layer.a1", 15, 25);
    let b = tr.record(Some(root), "layer.b", 30, 60);
    let c = tr.record(Some(root), "layer.c", 90, 120);
    (tr, [root, a, a1, b, c])
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    let (tr, [root, a, a1, b, c]) = tree();
    let st = tr.self_times();
    // Children of root cover [10,60) and [90,100): overlap counted once,
    // the overrun clipped to the parent.
    assert_eq!(st[root as usize].child_ns, 60);
    assert_eq!(st[root as usize].self_ns, 40);
    assert_eq!(st[a as usize].child_ns, 10);
    assert_eq!(st[a as usize].self_ns, 20);
    for leaf in [a1, b, c] {
        assert_eq!(st[leaf as usize].child_ns, 0);
        assert_eq!(st[leaf as usize].self_ns, st[leaf as usize].duration_ns);
    }
    // Coverage: the share of a span its children account for.
    let coverage = |id: u32| st[id as usize].child_ns as f64 / st[id as usize].duration_ns as f64;
    assert_eq!(coverage(root), 0.6);
    assert_eq!(coverage(a1), 0.0);
}

#[test]
fn self_times_of_a_well_nested_tree_add_up_to_the_root() {
    let mut tr = Tracer::on();
    let root = tr.record(None, "root", 0, 1_000);
    let x = tr.record(Some(root), "x", 100, 400);
    tr.record(Some(x), "x1", 150, 250);
    tr.record(Some(x), "x2", 250, 300);
    tr.record(Some(root), "y", 500, 900);
    let total: u64 = tr.self_times().iter().map(|s| s.self_ns).sum();
    assert_eq!(total, 1_000);
}

#[test]
fn stages_are_laid_out_back_to_back_from_the_parent_start() {
    let mut tr = Tracer::on();
    let root = tr.record(None, "call", 1_000, 2_000);
    tr.record_stages(
        root,
        &[
            ("stage.one", Duration::from_nanos(300)),
            ("stage.two", Duration::from_nanos(500)),
        ],
    );
    let spans = tr.spans();
    assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_000, 1_300));
    assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_300, 1_800));
    assert!(spans[1].derived && spans[2].derived);
    assert_eq!(tr.self_times()[root as usize].self_ns, 200);
}

#[test]
fn live_spans_nest_and_counts_attach_to_the_open_span() {
    let mut tr = Tracer::on();
    tr.set_pass(3);
    let out = tr.span("outer", |tr| {
        tr.count("outer.items", 7.0);
        tr.span("inner", |_| 41) + 1
    });
    assert_eq!(out, 42);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(spans[0].id));
    assert_eq!(spans[0].pass, 3);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    assert_eq!(tr.counts()[0].span, Some(spans[0].id));
    assert_eq!(tr.last("inner").map(|s| s.id), Some(1));
}

#[test]
fn a_tracer_that_is_off_runs_the_closure_and_records_nothing() {
    let mut tr = Tracer::off();
    assert_eq!(tr.span("outer", |tr| tr.span("inner", |_| 5)), 5);
    tr.count("n", 1.0);
    assert!(tr.spans().is_empty() && tr.counts().is_empty());
}

#[test]
fn trace_file_carries_ids_parents_bounds_and_self_time() {
    let (tr, _) = tree();
    let doc = Json::parse(&tr.to_json().pretty()).expect("trace file parses");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert_eq!(spans.len(), 5);
    let root = &spans[0];
    assert_eq!(root.get("parent"), Some(&Json::Null));
    assert_eq!(root.get("self_ns").and_then(Json::as_f64), Some(40.0));
    assert_eq!(spans[2].get("parent").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        spans[2].get("name").and_then(Json::as_str),
        Some("layer.a1")
    );
}
