//! Socket-level integration: the UDP active prober and the TCP crawl path
//! working together over a real network stack (localhost).

use squatphi_dnsdb::probe::{probe_all, AuthServer, ProbeResult, ProberConfig};
use squatphi_http::{fetch, ua, FetchOutcome, WorldServer};
use squatphi_squat::{BrandRegistry, SquatType};
use squatphi_web::{WebWorld, WorldConfig};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn build_world(registry: &BrandRegistry, domains: &[String]) -> Arc<WebWorld> {
    let squats: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| {
            (
                d.clone(),
                i % registry.len(),
                SquatType::Combo,
                Ipv4Addr::new(198, 51, 100, i as u8),
            )
        })
        .collect();
    Arc::new(WebWorld::build(
        &squats,
        registry,
        &WorldConfig {
            phishing_domains: domains.len() / 2,
            seed: 21,
            ..WorldConfig::default()
        },
    ))
}

#[test]
fn dns_probe_then_http_fetch() {
    let registry = BrandRegistry::with_size(8);
    let domains: Vec<String> = (0..12).map(|i| format!("paypal-net{i}.com")).collect();

    // DNS: half the candidates exist.
    let mut zone = HashMap::new();
    for (i, d) in domains.iter().enumerate() {
        if i % 2 == 0 {
            zone.insert(d.clone(), Ipv4Addr::new(203, 0, 113, i as u8));
        }
    }
    let dns = AuthServer::spawn(zone).expect("dns server");
    let results = probe_all(dns.addr(), &domains, &ProberConfig::default()).expect("probe");
    let resolved: Vec<String> = domains
        .iter()
        .zip(&results)
        .filter(|(_, r)| matches!(r, ProbeResult::Resolved(_)))
        .map(|(d, _)| d.clone())
        .collect();
    assert_eq!(resolved.len(), 6);
    dns.shutdown();

    // HTTP: fetch the resolving candidates from the world server.
    let world = build_world(&registry, &resolved);
    let server = WorldServer::spawn(world.clone(), 0).expect("http server");
    let mut pages = 0;
    for d in &resolved {
        match fetch(server.addr(), d, ua::WEB, 5).expect("fetch") {
            FetchOutcome::Page { .. } => pages += 1,
            FetchOutcome::Unreachable | FetchOutcome::TooManyRedirects => {}
        }
    }
    assert!(pages > 0, "no pages served over TCP");
    server.shutdown();
}

#[test]
fn mobile_and_web_profiles_can_differ_over_tcp() {
    let registry = BrandRegistry::with_size(8);
    let domains: Vec<String> = (0..30).map(|i| format!("google-svc{i}.com")).collect();
    let world = build_world(&registry, &domains);
    let server = WorldServer::spawn(world.clone(), 0).expect("http server");
    let mut differing = 0;
    for d in &domains {
        let web = fetch(server.addr(), d, ua::WEB, 5).expect("web fetch");
        let mobile = fetch(server.addr(), d, ua::MOBILE, 5).expect("mobile fetch");
        if web != mobile {
            differing += 1;
        }
    }
    // Half the domains are phishing and ~half of those cloak by device.
    assert!(
        differing > 0,
        "no cloaking observed across {} domains",
        domains.len()
    );
    server.shutdown();
}

#[test]
fn snapshots_are_observable_over_tcp() {
    let registry = BrandRegistry::with_size(8);
    let domains: Vec<String> = (0..40).map(|i| format!("citi-alerts{i}.com")).collect();
    let world = build_world(&registry, &domains);

    let s0 = WorldServer::spawn(world.clone(), 0).expect("server s0");
    let s3 = WorldServer::spawn(world.clone(), 3).expect("server s3");
    let mut changed = 0;
    for d in &domains {
        let early = fetch(s0.addr(), d, ua::MOBILE, 5).expect("fetch s0");
        let late = fetch(s3.addr(), d, ua::MOBILE, 5).expect("fetch s3");
        if early != late {
            changed += 1;
        }
    }
    assert!(changed > 0, "no takedowns visible between snapshots");
    s0.shutdown();
    s3.shutdown();
}
