//! The §6 analyses: everything the evaluation figures and tables report
//! about the detected squatting phishing population.

use crate::pipeline::{Detection, PipelineResult};
use squatphi_feeds::{Blacklists, PhishKind};
use squatphi_squat::SquatType;
use squatphi_web::whois::{country_of, registration_year};
use squatphi_web::{Device, ServeResult, SiteBehavior};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Accumulated-share curve: element `i` is the share owned by the top
/// `i + 1` items (Figures 3, 5).
pub fn accumulated_share(counts_per_item: &[usize]) -> Vec<f64> {
    let mut sorted: Vec<usize> = counts_per_item.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = sorted.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0usize;
    sorted
        .iter()
        .map(|&c| {
            acc += c;
            acc as f64 / total as f64
        })
        .collect()
}

/// Per-brand counts of confirmed phishing domains (Figures 11, 13).
pub fn confirmed_per_brand(result: &PipelineResult) -> Vec<(String, usize, usize)> {
    let mut web: HashMap<usize, HashSet<&str>> = HashMap::new();
    let mut mobile: HashMap<usize, HashSet<&str>> = HashMap::new();
    for d in result.confirmed(Device::Web) {
        web.entry(d.brand).or_default().insert(&d.domain);
    }
    for d in result.confirmed(Device::Mobile) {
        mobile.entry(d.brand).or_default().insert(&d.domain);
    }
    let mut out: Vec<(String, usize, usize)> = result
        .registry
        .brands()
        .iter()
        .map(|b| {
            (
                b.label.clone(),
                web.get(&b.id).map(HashSet::len).unwrap_or(0),
                mobile.get(&b.id).map(HashSet::len).unwrap_or(0),
            )
        })
        .filter(|(_, w, m)| *w + *m > 0)
        .collect();
    out.sort_by_key(|x| std::cmp::Reverse(x.1 + x.2));
    out
}

/// Confirmed phishing domains per squatting type per device (Figure 12).
pub fn confirmed_per_type(result: &PipelineResult) -> [(usize, usize); 5] {
    let mut out = [(0usize, 0usize); 5];
    let idx = |t: SquatType| match t {
        SquatType::Homograph => 0,
        SquatType::Bits => 1,
        SquatType::Typo => 2,
        SquatType::Combo => 3,
        SquatType::WrongTld => 4,
    };
    let mut web_seen: HashSet<&str> = HashSet::new();
    for d in result.confirmed(Device::Web) {
        if web_seen.insert(&d.domain) {
            out[idx(d.squat_type)].0 += 1;
        }
    }
    let mut mob_seen: HashSet<&str> = HashSet::new();
    for d in result.confirmed(Device::Mobile) {
        if mob_seen.insert(&d.domain) {
            out[idx(d.squat_type)].1 += 1;
        }
    }
    out
}

/// Cloaking split (§6.1): (both, mobile-only, web-only) confirmed
/// phishing domains.
pub fn cloaking_split(result: &PipelineResult) -> (usize, usize, usize) {
    let web: HashSet<&str> = result
        .confirmed(Device::Web)
        .iter()
        .map(|d| d.domain.as_str())
        .collect();
    let mobile: HashSet<&str> = result
        .confirmed(Device::Mobile)
        .iter()
        .map(|d| d.domain.as_str())
        .collect();
    let both = web.intersection(&mobile).count();
    (both, mobile.len() - both, web.len() - both)
}

/// Country histogram of confirmed phishing domains (Figure 15).
pub fn geo_distribution(result: &PipelineResult) -> Vec<(&'static str, usize)> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for d in result.confirmed_domains() {
        *counts.entry(country_of(d)).or_default() += 1;
    }
    let mut out: Vec<(&'static str, usize)> = counts.into_iter().collect();
    out.sort_by_key(|x| std::cmp::Reverse(x.1));
    out
}

/// Registration-year histogram of confirmed phishing domains (Figure 16).
pub fn registration_histogram(result: &PipelineResult) -> BTreeMap<u16, usize> {
    let mut out = BTreeMap::new();
    for d in result.confirmed_domains() {
        *out.entry(registration_year(d)).or_default() += 1;
    }
    out
}

/// Liveness of confirmed phishing pages across the four snapshots
/// (Figure 17): how many still serve a phishing page at each snapshot,
/// per device.
pub fn snapshot_liveness(result: &PipelineResult) -> [(usize, usize); 4] {
    let mut out = [(0usize, 0usize); 4];
    for domain in result.confirmed_domains() {
        let Some(site) = result.world.site(domain) else {
            continue;
        };
        let SiteBehavior::Phishing(p) = &site.behavior else {
            continue;
        };
        for (s, slot) in out.iter_mut().enumerate() {
            if p.lifetime.phishing_live(s as u8) {
                match p.cloaking {
                    squatphi_web::Cloaking::MobileOnly => slot.1 += 1,
                    squatphi_web::Cloaking::WebOnly => slot.0 += 1,
                    squatphi_web::Cloaking::None => {
                        slot.0 += 1;
                        slot.1 += 1;
                    }
                }
            }
        }
    }
    out
}

/// Per-snapshot liveness trace of one domain (Table 13 rows): "Live",
/// "Benign" or "-" per snapshot. Both device profiles are probed — a
/// cloaked page that only answers one profile still counts as live,
/// mirroring how the paper re-crawled with both agents.
pub fn liveness_trace(result: &PipelineResult, domain: &str) -> [&'static str; 4] {
    let mut out = ["-"; 4];
    for (s, slot) in out.iter_mut().enumerate() {
        let mut state = "-";
        for device in [Device::Web, Device::Mobile] {
            match result.world.serve(domain, device, s as u8) {
                ServeResult::Page(html) if html.contains("<form") => {
                    state = "Live";
                    break;
                }
                ServeResult::Page(_) | ServeResult::Redirect(_) => {
                    if state == "-" {
                        state = "Benign";
                    }
                }
                ServeResult::Unreachable => {}
            }
        }
        *slot = state;
    }
    out
}

/// Blacklist coverage of the confirmed squatting phishing set one month
/// in (Table 12): (phishtank, virustotal, ecrimex, undetected).
pub fn blacklist_coverage(result: &PipelineResult) -> (usize, usize, usize, usize) {
    let bl = Blacklists::new();
    let (mut pt, mut vt, mut ecx, mut none) = (0usize, 0usize, 0usize, 0usize);
    for d in result.confirmed_domains() {
        let r = bl.check(d, PhishKind::Squatting, 30);
        if r.phishtank {
            pt += 1;
        }
        if r.virustotal_engines > 0 {
            vt += 1;
        }
        if r.ecrimex {
            ecx += 1;
        }
        if !r.detected() {
            none += 1;
        }
    }
    (pt, vt, ecx, none)
}

/// Redirect league table (Tables 3-4): per brand, (domains with
/// redirects, to-original, to-market, to-other), web profile. Rows run
/// by descending redirect count, ties by ascending brand id, so the
/// tables' stable sorts inherit a total order.
pub fn redirect_league(result: &PipelineResult) -> Vec<(String, usize, usize, usize, usize)> {
    use squatphi_crawler::RedirectClass;
    let mut per_brand: BTreeMap<usize, (usize, usize, usize, usize)> = BTreeMap::new();
    for r in &result.crawl {
        if r.web.is_none() {
            continue;
        }
        let e = per_brand.entry(r.brand).or_default();
        match r.web_redirect {
            RedirectClass::None => {}
            RedirectClass::Original => {
                e.0 += 1;
                e.1 += 1;
            }
            RedirectClass::Market => {
                e.0 += 1;
                e.2 += 1;
            }
            RedirectClass::Other => {
                e.0 += 1;
                e.3 += 1;
            }
        }
    }
    let mut out: Vec<(String, usize, usize, usize, usize)> = per_brand
        .into_iter()
        .filter(|(_, (total, ..))| *total > 0)
        .map(|(b, (t, o, m, x))| {
            (
                result
                    .registry
                    .get(b)
                    .map(|br| br.label.clone())
                    .unwrap_or_default(),
                t,
                o,
                m,
                x,
            )
        })
        .collect();
    out.sort_by_key(|x| std::cmp::Reverse(x.1));
    out
}

/// The per-detection list of example phishing domains per brand
/// (Tables 9-10 input).
pub fn examples_per_brand<'a>(
    result: &'a PipelineResult,
    label: &str,
    limit: usize,
) -> Vec<&'a Detection> {
    let Some(brand) = result.registry.by_label(label) else {
        return Vec::new();
    };
    let mut seen = HashSet::new();
    result
        .web_detections
        .iter()
        .chain(&result.mobile_detections)
        .filter(|d| d.brand == brand.id && d.confirmed && seen.insert(d.domain.as_str()))
        .take(limit)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulated_share_shapes() {
        let shares = accumulated_share(&[50, 30, 10, 10]);
        assert_eq!(shares.len(), 4);
        assert!((shares[0] - 0.5).abs() < 1e-12);
        assert!((shares[3] - 1.0).abs() < 1e-12);
        assert!(shares.windows(2).all(|w| w[1] >= w[0]));
        assert!(accumulated_share(&[]).is_empty());
        assert!(accumulated_share(&[0, 0]).is_empty());
    }

    #[test]
    fn redirect_league_is_totally_ordered_and_repeatable() {
        let result = crate::pipeline::tests::run();
        let league = redirect_league(result);
        assert!(
            league.len() >= 2,
            "tiny run has {} redirecting brands",
            league.len()
        );
        let keys: Vec<(std::cmp::Reverse<usize>, usize)> = league
            .iter()
            .map(|row| {
                let brand = result
                    .registry
                    .by_label(&row.0)
                    .expect("league labels are brands");
                (std::cmp::Reverse(row.1), brand.id)
            })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        // Each call aggregates afresh (a HashMap would draw new hash keys).
        for _ in 0..8 {
            assert_eq!(redirect_league(result), league);
        }
    }

    // The other pipeline-dependent analyses are covered by the
    // workspace-level integration suite (tests/end_to_end.rs) which
    // shares one run.
}
