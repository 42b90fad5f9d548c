//! The [`WebWorld`]: host → behavior resolution with device cloaking and
//! snapshot dynamics.

use crate::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind, SiteBehavior};
use crate::pages;
use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_squat::{BrandId, BrandRegistry, SquatType};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The 22 known domain marketplaces the paper compiled (names synthetic).
pub const MARKETPLACES: &[&str] = &[
    "marketmonitor.example",
    "sedo.example",
    "afternic.example",
    "dan.example",
    "flippa.example",
    "hugedomains.example",
    "buydomains.example",
    "namejet.example",
    "snapnames.example",
    "dropcatch.example",
    "parkingcrew.example",
    "bodis.example",
    "above.example",
    "undeveloped.example",
    "uniregistry.example",
    "epik.example",
    "dynadot.example",
    "squadhelp.example",
    "brandbucket.example",
    "efty.example",
    "domainagents.example",
    "grit.example",
];

/// Device profile of a crawl request (the paper's two User-Agent strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Desktop Chrome 65.
    Web,
    /// iPhone 6 Safari/Chrome.
    Mobile,
}

/// One of the four crawl snapshots (April 01 / 08 / 22 / 29, 2018).
pub type Snapshot = u8;

/// Labels for the four snapshots.
pub const SNAPSHOT_DATES: [&str; 4] = ["April 01", "April 08", "April 22", "April 29"];

/// A site entry in the world.
#[derive(Debug, Clone)]
pub struct Site {
    /// The registrable squatting domain.
    pub domain: String,
    /// Impersonated brand (if the domain came from the squat scan).
    pub brand: Option<BrandId>,
    /// Squatting type (if any).
    pub squat_type: Option<SquatType>,
    /// What the site does.
    pub behavior: SiteBehavior,
    /// Hosting IP.
    pub ip: Ipv4Addr,
}

/// What a request returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeResult {
    /// Connection failed / NXDOMAIN.
    Unreachable,
    /// HTTP redirect to another absolute URL.
    Redirect(String),
    /// An HTML page.
    Page(String),
}

/// The payload-free class of a [`ServeResult`] — what transports map
/// onto their own error taxonomies (the crawler turns `Unreachable`
/// into a connection-refused fetch error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeClass {
    /// Connection failed / NXDOMAIN.
    Unreachable,
    /// HTTP redirect.
    Redirect,
    /// An HTML page.
    Page,
}

impl ServeResult {
    /// This result's class.
    pub fn class(&self) -> ServeClass {
        match self {
            ServeResult::Unreachable => ServeClass::Unreachable,
            ServeResult::Redirect(_) => ServeClass::Redirect,
            ServeResult::Page(_) => ServeClass::Page,
        }
    }

    /// Whether the request failed to reach any server.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, ServeResult::Unreachable)
    }
}

impl std::fmt::Display for ServeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeClass::Unreachable => "unreachable",
            ServeClass::Redirect => "redirect",
            ServeClass::Page => "page",
        })
    }
}

impl std::fmt::Display for ServeResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeResult::Unreachable => f.write_str("unreachable"),
            ServeResult::Redirect(url) => write!(f, "redirect -> {url}"),
            ServeResult::Page(html) => write!(f, "page ({} bytes)", html.len()),
        }
    }
}

/// Behavior-mix configuration (paper Tables 2-4, §6.1).
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Fraction of squatting domains that are live (~0.55 in Table 2).
    pub live_fraction: f64,
    /// Among live: fraction redirecting to the original brand site.
    pub redirect_original: f64,
    /// Among live: fraction redirecting to marketplaces.
    pub redirect_market: f64,
    /// Among live: fraction redirecting elsewhere.
    pub redirect_other: f64,
    /// Number of phishing domains to plant (paper: 1,175).
    pub phishing_domains: usize,
    /// Fraction of live non-phishing sites that are confusing-benign
    /// (forms, brand plugins) — the classifier's hard negatives.
    pub confusing_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            live_fraction: 0.551,
            redirect_original: 0.017,
            redirect_market: 0.030,
            redirect_other: 0.080,
            phishing_domains: 1175,
            confusing_fraction: 0.10,
            seed: 20180401,
        }
    }
}

/// The synthetic web: every squatting domain mapped to a behavior.
#[derive(Debug, Clone)]
pub struct WebWorld {
    sites: HashMap<String, Site>,
    registry_labels: Vec<String>,
    registry_domains: Vec<String>,
    brand_pages: Vec<String>,
}

impl WebWorld {
    /// Builds the world over the squat-scan output: `(domain, brand,
    /// squat_type, ip)` tuples. Behavior assignment reproduces the
    /// paper's measured mix; phishing placement is weighted toward the
    /// brands the paper found heavily targeted (google first at 194
    /// pages — Figure 13).
    pub fn build(
        squats: &[(String, BrandId, SquatType, Ipv4Addr)],
        registry: &BrandRegistry,
        config: &WorldConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sites = HashMap::with_capacity(squats.len());

        // Choose phishing hosts by weighted sampling *without replacement*
        // (exponential-race trick: smallest -ln(u)/w wins). Heavy brands
        // dominate (google first, Figure 13) but the tail still lands a
        // few phishing domains each, reproducing the paper's 281 targeted
        // brands.
        let mut keyed: Vec<(f64, usize)> = squats
            .iter()
            .enumerate()
            .map(|(i, (d, b, t, _))| {
                let w = phishing_weight(registry, *b, *t) as f64;
                // Uniform in (0,1) from the domain hash, stable across runs.
                let u = ((fxhash(d) >> 11) as f64 + 1.0) / ((1u64 << 53) as f64 + 2.0);
                (-u.ln() / w, i)
            })
            .collect();
        let phishing_count = config.phishing_domains.min(squats.len());
        if phishing_count > 0 && phishing_count < keyed.len() {
            keyed.select_nth_unstable_by(phishing_count - 1, |a, b| {
                a.0.partial_cmp(&b.0).expect("finite keys")
            });
        }
        let phishing_set: std::collections::HashSet<usize> =
            keyed.iter().take(phishing_count).map(|&(_, i)| i).collect();

        for (i, (domain, brand, squat_type, ip)) in squats.iter().enumerate() {
            let behavior = if phishing_set.contains(&i) {
                SiteBehavior::Phishing(make_profile(*brand, &mut rng))
            } else {
                assign_benign_behavior(*brand, config, &mut rng)
            };
            sites.insert(
                domain.clone(),
                Site {
                    domain: domain.clone(),
                    brand: Some(*brand),
                    squat_type: Some(*squat_type),
                    behavior,
                    ip: *ip,
                },
            );
        }
        WebWorld {
            sites,
            registry_labels: registry.brands().iter().map(|b| b.label.clone()).collect(),
            registry_domains: registry
                .brands()
                .iter()
                .map(|b| b.domain.as_str().to_string())
                .collect(),
            brand_pages: registry
                .brands()
                .iter()
                .map(pages::brand_login_page)
                .collect(),
        }
    }

    /// All sites.
    pub fn sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.values()
    }

    /// Site lookup by registrable domain.
    pub fn site(&self, domain: &str) -> Option<&Site> {
        self.sites.get(domain)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the world has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The canonical login page of a brand (what the real site serves).
    pub fn brand_page(&self, brand: BrandId) -> Option<&str> {
        self.brand_pages.get(brand).map(String::as_str)
    }

    /// Serves a request for `host` from `device` at snapshot `snapshot`.
    /// Brand-canonical hosts are always served; squat hosts follow their
    /// assigned behavior.
    pub fn serve(&self, host: &str, device: Device, snapshot: Snapshot) -> ServeResult {
        // The brands' own sites.
        if let Some(b) = self.registry_domains.iter().position(|d| d == host) {
            return ServeResult::Page(self.brand_pages[b].clone());
        }
        let Some(site) = self.sites.get(host) else {
            return ServeResult::Unreachable;
        };
        match &site.behavior {
            SiteBehavior::Dead => ServeResult::Unreachable,
            SiteBehavior::Parked => ServeResult::Page(pages::parked_page(host)),
            SiteBehavior::Benign => ServeResult::Page(pages::benign_page(host, fxhash(host))),
            SiteBehavior::ConfusingBenign => {
                let brand_label = site
                    .brand
                    .and_then(|b| self.registry_labels.get(b))
                    .map(String::as_str);
                ServeResult::Page(pages::confusing_benign_page(
                    host,
                    brand_label,
                    fxhash(host),
                ))
            }
            SiteBehavior::RedirectOriginal { brand } => {
                let target = self
                    .registry_domains
                    .get(*brand)
                    .cloned()
                    .unwrap_or_else(|| "example.com".into());
                ServeResult::Redirect(format!("https://{target}/"))
            }
            SiteBehavior::RedirectMarket { market } => {
                let m = MARKETPLACES[market % MARKETPLACES.len()];
                ServeResult::Redirect(format!("http://{m}/domain/{host}"))
            }
            SiteBehavior::RedirectOther => ServeResult::Redirect(format!(
                "http://tracker{}.example/lander",
                fxhash(host) % 50
            )),
            SiteBehavior::Phishing(profile) => {
                self.serve_phishing(site, profile, device, snapshot, host)
            }
        }
    }

    fn serve_phishing(
        &self,
        site: &Site,
        profile: &PhishingProfile,
        device: Device,
        snapshot: Snapshot,
        host: &str,
    ) -> ServeResult {
        if !profile.lifetime.phishing_live(snapshot) {
            // Taken down: either gone entirely or replaced by benign.
            return match profile.lifetime {
                LifetimePattern::Comeback => {
                    ServeResult::Page(pages::benign_page(host, fxhash(host)))
                }
                _ => ServeResult::Unreachable,
            };
        }
        let cloaked_away = matches!(
            (profile.cloaking, device),
            (Cloaking::MobileOnly, Device::Web) | (Cloaking::WebOnly, Device::Mobile)
        );
        if cloaked_away {
            return ServeResult::Page(pages::benign_page(host, fxhash(host) ^ 1));
        }
        let brand_label = site
            .brand
            .and_then(|b| self.registry_labels.get(b))
            .cloned()
            .unwrap_or_default();
        // Rebuild a Brand view for the page generator (label + id are all
        // it reads).
        let brand = squatphi_squat::Brand {
            id: profile.brand,
            label: brand_label.clone(),
            domain: squatphi_domain::DomainName::parse(
                self.registry_domains
                    .get(profile.brand)
                    .map(String::as_str)
                    .unwrap_or("example.com"),
            )
            .expect("registry domains are valid"),
            category: squatphi_squat::Category::PhishTankOnly,
            alexa_rank: 0,
            phishtank_target: false,
        };
        ServeResult::Page(pages::phishing_page(&brand, profile, host, fxhash(host)))
    }
}

/// Deterministic string hash (FxHash-style multiply-xor).
pub fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn phishing_weight(registry: &BrandRegistry, brand: BrandId, ty: SquatType) -> u64 {
    let label = registry.get(brand).map(|b| b.label.as_str()).unwrap_or("");
    // Figure 13: google dominates (194), then ford/facebook/bitcoin/
    // amazon/apple in the 20-40 band; combo slightly favored (Figure 12).
    let brand_w: u64 = match label {
        "google" => 200,
        "ford" => 40,
        "facebook" => 38,
        "bitcoin" => 33,
        "archive" => 30,
        "amazon" => 28,
        "europa" => 25,
        "cisco" => 24,
        "discover" => 23,
        "apple" => 22,
        "porn" => 20,
        "healthcare" => 18,
        "samsung" => 17,
        "intel" => 16,
        "uber" => 16,
        "people" => 14,
        "citi" => 14,
        "youtube" => 13,
        "paypal" => 12,
        "ebay" => 8,
        "microsoft" => 6,
        "twitter" => 6,
        "dropbox" => 4,
        "github" => 5,
        "adp" => 5,
        "santander" => 2,
        _ => 1,
    };
    let type_w: u64 = match ty {
        SquatType::Combo => 5,
        SquatType::Typo => 3,
        SquatType::Homograph => 3,
        SquatType::Bits => 2,
        SquatType::WrongTld => 2,
    };
    brand_w * type_w
}

fn make_profile(brand: BrandId, rng: &mut StdRng) -> PhishingProfile {
    // Cloaking mix from §6.1: 590/1175 both, 318 mobile-only, 267 web-only.
    let cloaking = match rng.gen_range(0..1175u32) {
        0..=589 => Cloaking::None,
        590..=907 => Cloaking::MobileOnly,
        _ => Cloaking::WebOnly,
    };
    // Lifetime from Figure 17: ~80% stable over the month; a sliver of
    // comebacks (Table 13).
    let lifetime = match rng.gen_range(0..100u32) {
        0..=79 => LifetimePattern::Stable,
        80..=84 => LifetimePattern::TakenDown { down_from: 1 },
        85..=92 => LifetimePattern::TakenDown { down_from: 2 },
        93..=97 => LifetimePattern::TakenDown { down_from: 3 },
        _ => LifetimePattern::Comeback,
    };
    let scam = match rng.gen_range(0..100u32) {
        0..=59 => ScamKind::FakeLogin,
        60..=69 => ScamKind::PaymentTheft,
        70..=79 => ScamKind::FakeSearch,
        80..=86 => ScamKind::TechSupport,
        87..=93 => ScamKind::Payroll,
        _ => ScamKind::OfflineScam,
    };
    PhishingProfile {
        brand,
        scam,
        // Table 11: squatting phishing layout distance 28.4±11.8 → mostly
        // intensity 2-3.
        layout_obfuscation: match rng.gen_range(0..100u32) {
            0..=9 => 0,
            10..=34 => 1,
            35..=74 => 2,
            _ => 3,
        },
        // 68.1% string obfuscation.
        string_obfuscation: rng.gen_bool(0.681),
        // 34% code obfuscation.
        code_obfuscation: rng.gen_bool(0.340),
        cloaking,
        lifetime,
    }
}

fn assign_benign_behavior(brand: BrandId, config: &WorldConfig, rng: &mut StdRng) -> SiteBehavior {
    if !rng.gen_bool(config.live_fraction) {
        return SiteBehavior::Dead;
    }
    let r: f64 = rng.gen();
    if r < config.redirect_original {
        SiteBehavior::RedirectOriginal { brand }
    } else if r < config.redirect_original + config.redirect_market {
        SiteBehavior::RedirectMarket {
            market: rng.gen_range(0..MARKETPLACES.len()),
        }
    } else if r < config.redirect_original + config.redirect_market + config.redirect_other {
        SiteBehavior::RedirectOther
    } else if r < config.redirect_original
        + config.redirect_market
        + config.redirect_other
        + config.confusing_fraction
    {
        SiteBehavior::ConfusingBenign
    } else if rng.gen_bool(0.5) {
        SiteBehavior::Parked
    } else {
        SiteBehavior::Benign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> (WebWorld, BrandRegistry) {
        let registry = BrandRegistry::with_size(30);
        let mut squats = Vec::new();
        for (i, b) in registry.brands().iter().enumerate() {
            for j in 0..40 {
                squats.push((
                    format!("{}-squat{}.com", b.label, j),
                    i,
                    SquatType::Combo,
                    Ipv4Addr::new(198, 51, (i % 250) as u8, j as u8),
                ));
            }
        }
        let config = WorldConfig {
            phishing_domains: 60,
            seed: 5,
            ..WorldConfig::default()
        };
        (WebWorld::build(&squats, &registry, &config), registry)
    }

    #[test]
    fn world_covers_all_squats() {
        let (world, reg) = tiny_world();
        assert_eq!(world.len(), reg.len() * 40);
    }

    #[test]
    fn phishing_count_matches_config() {
        let (world, _) = tiny_world();
        let n = world.sites().filter(|s| s.behavior.is_phishing()).count();
        assert_eq!(n, 60);
    }

    #[test]
    fn google_gets_most_phishing() {
        let (world, reg) = tiny_world();
        let google = reg.by_label("google").unwrap().id;
        let mut per_brand = vec![0usize; reg.len()];
        for s in world.sites().filter(|s| s.behavior.is_phishing()) {
            per_brand[s.brand.unwrap()] += 1;
        }
        let max = per_brand.iter().max().copied().unwrap();
        assert_eq!(
            per_brand[google], max,
            "google {} vs max {max}",
            per_brand[google]
        );
    }

    #[test]
    fn behavior_mix_roughly_matches() {
        let (world, _) = tiny_world();
        let total = world.len() as f64;
        let live = world.sites().filter(|s| s.behavior.is_live()).count() as f64;
        assert!(
            (live / total - 0.55).abs() < 0.1,
            "live fraction {}",
            live / total
        );
    }

    #[test]
    fn serve_brand_site() {
        let (world, reg) = tiny_world();
        let d = reg.by_label("paypal").unwrap().domain.as_str().to_string();
        match world.serve(&d, Device::Web, 0) {
            ServeResult::Page(p) => assert!(p.contains("paypal")),
            other => panic!("expected page, got {other:?}"),
        }
    }

    #[test]
    fn serve_unknown_host_unreachable() {
        let (world, _) = tiny_world();
        assert_eq!(
            world.serve("unknown.example", Device::Web, 0),
            ServeResult::Unreachable
        );
    }

    #[test]
    fn redirects_resolve() {
        let (world, _) = tiny_world();
        let mut seen_redirect = false;
        for s in world.sites() {
            if let SiteBehavior::RedirectOriginal { .. } | SiteBehavior::RedirectMarket { .. } =
                s.behavior
            {
                match world.serve(&s.domain, Device::Web, 0) {
                    ServeResult::Redirect(url) => {
                        assert!(url.starts_with("http"));
                        seen_redirect = true;
                    }
                    other => panic!("expected redirect for {}, got {other:?}", s.domain),
                }
            }
        }
        assert!(
            seen_redirect,
            "no redirect behaviors assigned at this scale"
        );
    }

    #[test]
    fn cloaking_serves_different_pages() {
        let (world, _) = tiny_world();
        let cloaked: Vec<&Site> = world
            .sites()
            .filter(|s| {
                matches!(
                    &s.behavior,
                    SiteBehavior::Phishing(p) if p.cloaking == Cloaking::MobileOnly
                        && p.lifetime == LifetimePattern::Stable
                )
            })
            .collect();
        assert!(!cloaked.is_empty(), "no mobile-only phishing in sample");
        let s = cloaked[0];
        let web = world.serve(&s.domain, Device::Web, 0);
        let mobile = world.serve(&s.domain, Device::Mobile, 0);
        assert_ne!(web, mobile);
        if let ServeResult::Page(p) = mobile {
            assert!(p.contains("form"), "mobile should get the phishing form");
        } else {
            panic!("mobile request should get a page");
        }
    }

    #[test]
    fn takedown_lifecycle_respected() {
        let (world, _) = tiny_world();
        for s in world.sites() {
            if let SiteBehavior::Phishing(p) = &s.behavior {
                if let LifetimePattern::TakenDown { down_from } = p.lifetime {
                    let before =
                        world.serve(&s.domain, Device::Mobile, down_from.saturating_sub(1));
                    let after = world.serve(&s.domain, Device::Mobile, down_from);
                    if down_from > 0 {
                        assert_ne!(before, ServeResult::Unreachable);
                    }
                    assert_eq!(after, ServeResult::Unreachable);
                    return;
                }
            }
        }
    }

    #[test]
    fn serve_results_classify_and_display() {
        assert_eq!(ServeResult::Unreachable.class(), ServeClass::Unreachable);
        assert!(ServeResult::Unreachable.is_unreachable());
        let r = ServeResult::Redirect("http://x.example/".into());
        assert_eq!(r.class(), ServeClass::Redirect);
        assert_eq!(r.to_string(), "redirect -> http://x.example/");
        let p = ServeResult::Page("<html></html>".into());
        assert_eq!(p.class(), ServeClass::Page);
        assert_eq!(p.to_string(), "page (13 bytes)");
        assert_eq!(ServeClass::Unreachable.to_string(), "unreachable");
    }

    #[test]
    fn deterministic_serving() {
        let (world, _) = tiny_world();
        for s in world.sites().take(10) {
            assert_eq!(
                world.serve(&s.domain, Device::Web, 0),
                world.serve(&s.domain, Device::Web, 0)
            );
        }
    }
}
