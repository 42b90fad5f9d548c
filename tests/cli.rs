//! Integration tests for the `squatphi` CLI: parse → run round trips on
//! temp fixtures, exercising the same code paths as the binary.

use squatphi_cli::{commands, parse_args};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn run_line(line: &str) -> Result<String, String> {
    let cmd = parse_args(&args(line)).map_err(|e| e.to_string())?;
    commands::run(&cmd)
}

#[test]
fn classify_round_trip() {
    let out = run_line("classify xn--fcebook-8va.com paypal-cash.com example.com").expect("runs");
    assert!(
        out.contains("xn--fcebook-8va.com: SQUATTING (Homograph) on facebook"),
        "{out}"
    );
    assert!(
        out.contains("paypal-cash.com: SQUATTING (Combo) on paypal"),
        "{out}"
    );
    assert!(out.contains("example.com: clean"), "{out}");
}

#[test]
fn gen_respects_limit() {
    let out = run_line("gen santander --limit 1").expect("runs");
    // One candidate per type, five types.
    let candidate_lines = out.lines().filter(|l| l.starts_with("  ")).count();
    assert_eq!(candidate_lines, 5, "{out}");
}

#[test]
fn gen_rejects_a_zero_limit() {
    let err = parse_args(&args("gen facebook --limit 0")).expect_err("a zero limit lists nothing");
    assert!(
        err.to_string().contains("--limit needs a positive integer"),
        "{err}"
    );
    assert!(run_line("gen facebook --limit 1").is_ok());
}

#[test]
fn chaos_rejects_out_of_range_values() {
    for (spec, message) in [("every-0", "K >= 1"), ("permille-5000", "P in 0..=1000")] {
        let err = parse_args(&args(&format!("crawl zone.txt --chaos {spec}")))
            .expect_err("an out-of-range plan is not clamped into range");
        assert!(err.to_string().contains(message), "{spec}: {err}");
    }
    assert!(parse_args(&args("crawl zone.txt --chaos every-1")).is_ok());
    assert!(parse_args(&args("crawl zone.txt --chaos permille-1000")).is_ok());
}

#[test]
fn render_rejects_a_zero_width() {
    let err = parse_args(&args("render page.html --width 0")).expect_err("zero columns");
    assert!(
        err.to_string().contains("--width needs a positive integer"),
        "{err}"
    );
}

#[test]
fn scan_zone_fixture_end_to_end() {
    let dir = std::env::temp_dir().join("squatphi-cli-integration");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let zone = dir.join("fixture.zone");

    // Build the fixture through the library path: generate, store, export.
    let registry = squatphi_squat::BrandRegistry::with_size(10);
    let cfg = squatphi_dnsdb::SnapshotConfig {
        benign_records: 200,
        squatting_records: 40,
        subdomain_fraction: 0.0,
        seed: 31,
    };
    let (store, stats) = squatphi_dnsdb::synth::generate(&cfg, &registry);
    std::fs::write(&zone, store.to_zone()).expect("write zone");

    let out = run_line(&format!("scan {} --threads 2", zone.display())).expect("runs");
    let planted: usize = stats.planted_by_type.iter().sum();
    // The CLI scans against the full 702-brand registry, so it must find
    // at least everything planted against the 10-brand subset.
    let found: usize = out
        .lines()
        .find(|l| l.contains("squatting domains"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(found >= planted, "found {found} < planted {planted}\n{out}");
}

#[test]
fn render_page_fixture() {
    let dir = std::env::temp_dir().join("squatphi-cli-integration");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let page = dir.join("page.html");
    std::fs::write(
        &page,
        "<html><head><title>citi login</title></head><body><h1>citi</h1>\
         <form><input type='password' placeholder='password'></form></body></html>",
    )
    .expect("write page");
    let out = run_line(&format!("render {} --width 48", page.display())).expect("runs");
    assert!(out.lines().count() > 10);
    assert!(
        out.contains('#') || out.contains('*'),
        "no ink in render:\n{out}"
    );
}

#[test]
fn render_honours_a_narrow_width() {
    let dir = std::env::temp_dir().join("squatphi-cli-integration");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let page = dir.join("narrow.html");
    std::fs::write(&page, "<html><body><h1>citi</h1></body></html>").expect("write page");
    let out = run_line(&format!("render {} --width 3", page.display())).expect("runs");
    assert!(out.lines().count() > 0);
    assert!(
        out.lines().all(|line| line.chars().count() == 3),
        "render --width 3 printed other widths:\n{out}"
    );
}

#[test]
fn errors_are_reported_not_panicked() {
    assert!(run_line("scan /definitely/not/here.zone").is_err());
    assert!(run_line("gen notabrandatall").is_err());
    assert!(run_line("bogus-subcommand").is_err());
}
