//! Active probing over real sockets: the ActiveDNS-style pipeline.
//!
//! ```sh
//! cargo run --release --example active_probe
//! ```
//!
//! 1. spawns an authoritative UDP DNS server serving a synthetic zone,
//! 2. probes squatting candidates for a brand concurrently over UDP,
//! 3. spawns the virtual-host HTTP server fronting the web world,
//! 4. fetches the resolving domains over TCP with the web and mobile
//!    user-agent profiles, reporting what each host served.

use squatphi_dnsdb::probe::{probe_all, AuthServer, ProbeResult, ProberConfig};
use squatphi_http::{fetch, ua, FetchOutcome, WorldServer};
use squatphi_squat::gen::{generate_all, GenBudget};
use squatphi_squat::BrandRegistry;
use squatphi_web::{WebWorld, WorldConfig};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    let registry = BrandRegistry::with_size(30);
    let brand = registry.by_label("uber").expect("uber in registry");

    // Candidate squatting domains for the brand.
    let budget = GenBudget {
        homograph: 10,
        bits: 10,
        typo: 15,
        combo: 15,
        wrong_tld: 5,
    };
    let candidates: Vec<String> = generate_all(brand, budget)
        .into_iter()
        .map(|c| c.domain.as_str().to_string())
        .collect();
    println!(
        "probing {} candidates for {}",
        candidates.len(),
        brand.label
    );

    // A zone where roughly a third of the candidates are registered.
    let mut zone: HashMap<String, Ipv4Addr> = HashMap::new();
    let mut registered = Vec::new();
    for (i, d) in candidates.iter().enumerate() {
        if i % 3 == 0 {
            zone.insert(d.clone(), Ipv4Addr::new(198, 51, 100, (i % 250) as u8));
            registered.push(d.clone());
        }
    }
    let dns = AuthServer::spawn(zone)?;

    let results = probe_all(dns.addr(), &candidates, &ProberConfig::default())?;
    let resolved: Vec<&String> = candidates
        .iter()
        .zip(&results)
        .filter(|(_, r)| matches!(r, ProbeResult::Resolved(_)))
        .map(|(d, _)| d)
        .collect();
    let nx = results
        .iter()
        .filter(|r| matches!(r, ProbeResult::NxDomain))
        .count();
    println!("DNS: {} resolved, {} NXDOMAIN", resolved.len(), nx);
    dns.shutdown();

    // Build a tiny web world over the registered candidates and serve it
    // over real TCP.
    let squats: Vec<_> = registered
        .iter()
        .enumerate()
        .map(|(i, d)| {
            (
                d.clone(),
                brand.id,
                squatphi_squat::SquatType::Combo,
                Ipv4Addr::new(198, 51, 100, i as u8),
            )
        })
        .collect();
    let world = Arc::new(WebWorld::build(
        &squats,
        &registry,
        &WorldConfig {
            phishing_domains: 4,
            seed: 9,
            ..WorldConfig::default()
        },
    ));
    let http = WorldServer::spawn(world, 0)?;

    println!("\nHTTP crawl of resolving candidates:");
    for d in resolved.iter().take(12) {
        for (label, agent) in [("web", ua::WEB), ("mobile", ua::MOBILE)] {
            match fetch(http.addr(), d, agent, 5) {
                Ok(FetchOutcome::Page {
                    body, redirects, ..
                }) => {
                    let kind = if body.contains("type=\"password\"") {
                        "login form"
                    } else if !redirects.is_empty() {
                        "redirect chain"
                    } else if body.is_empty() {
                        "off-world redirect"
                    } else {
                        "content page"
                    };
                    println!("  {d:<28} [{label:<6}] {kind}");
                }
                Ok(FetchOutcome::Unreachable) => println!("  {d:<28} [{label:<6}] dead"),
                Ok(FetchOutcome::TooManyRedirects) => {
                    println!("  {d:<28} [{label:<6}] redirect loop")
                }
                Err(e) => println!("  {d:<28} [{label:<6}] error: {e}"),
            }
        }
    }
    http.shutdown();
    Ok(())
}
