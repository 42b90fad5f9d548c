//! Deterministic synthetic snapshot generator.
//!
//! Reproduces the statistical structure the paper measured (§3.1):
//!
//! * squatting types split roughly as combo 56% / typo 25% / bits 7% /
//!   wrongTLD 6% / homograph 5% (Figure 2),
//! * brand skew: the top-20 brands own >30% of squatting domains and the
//!   top brand ~6% (Figures 3-4), driven by short/generic labels,
//! * the rest of the haystack is benign dictionary-material domains.

use crate::store::RecordStore;
use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_domain::idna;
use squatphi_squat::gen::{self, GenBudget};
use squatphi_squat::words::BENIGN_WORDS;
use squatphi_squat::{BrandRegistry, SquatType};
use std::net::Ipv4Addr;

/// Scale knobs for the synthetic snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Number of benign (non-squatting) haystack records.
    pub benign_records: usize,
    /// Number of planted squatting records.
    pub squatting_records: usize,
    /// Fraction of records that carry a subdomain label (ActiveDNS seeds
    /// include host names, not only registrable domains).
    pub subdomain_fraction: f64,
    /// RNG seed; every draw derives from it.
    pub seed: u64,
}

impl SnapshotConfig {
    /// Paper scale divided by `divisor` (224.8M records / 657,663 squats).
    pub fn paper_scale(divisor: usize) -> Self {
        let d = divisor.max(1);
        SnapshotConfig {
            benign_records: (224_810_532usize - 657_663) / d,
            squatting_records: 657_663 / d,
            subdomain_fraction: 0.25,
            seed: 20180906,
        }
    }

    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        SnapshotConfig {
            benign_records: 2_000,
            squatting_records: 600,
            subdomain_fraction: 0.2,
            seed: 7,
        }
    }
}

/// What was actually planted (ground truth for scan-recall checks).
#[derive(Debug, Clone, Default)]
pub struct SnapshotStats {
    /// Planted squatting domains per type, paper order
    /// (homograph, bits, typo, combo, wrongTLD).
    pub planted_by_type: [usize; 5],
    /// Planted squatting domains per brand id.
    pub planted_by_brand: Vec<usize>,
    /// Total records in the snapshot.
    pub total_records: usize,
}

/// Paper type mix (Figure 2): homograph, bits, typo, combo, wrongTLD.
const TYPE_MIX: [(SquatType, f64); 5] = [
    (SquatType::Homograph, 32_646.0 / 657_663.0),
    (SquatType::Bits, 48_097.0 / 657_663.0),
    (SquatType::Typo, 166_152.0 / 657_663.0),
    (SquatType::Combo, 371_354.0 / 657_663.0),
    (SquatType::WrongTld, 39_414.0 / 657_663.0),
];

/// Generates the snapshot. Returns the record store and planting stats.
///
/// Deterministic: identical `(config, registry)` inputs produce an
/// identical snapshot.
pub fn generate(config: &SnapshotConfig, registry: &BrandRegistry) -> (RecordStore, SnapshotStats) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut store = RecordStore::with_capacity(config.benign_records + config.squatting_records);
    let mut stats = SnapshotStats {
        planted_by_brand: vec![0; registry.len()],
        ..SnapshotStats::default()
    };

    plant_squats(config, registry, &mut rng, &mut store, &mut stats);
    plant_benign(config, &mut rng, &mut store);

    stats.total_records = store.len();
    (store, stats)
}

/// Brand weights reproducing the paper's skew: a handful of short/generic
/// labels (vice, porn, bt, apple, ford) dominate, the tail is zipfian.
fn brand_weights(registry: &BrandRegistry) -> Vec<f64> {
    registry
        .brands()
        .iter()
        .map(|b| {
            let boost = match b.label.as_str() {
                "vice" => 75.0,  // 5.98% in Figure 4
                "porn" => 35.0,  // 2.76%
                "bt" => 31.0,    // 2.46%
                "apple" => 26.0, // 2.05%
                "ford" => 23.0,  // 1.85%
                "amazon" => 20.0,
                "google" => 30.0,
                "paypal" => 10.0,
                "facebook" => 15.0,
                "uber" => 20.0,
                "citi" => 15.0,
                _ => 0.0,
            };
            // Zipf-flavored tail on rank, plus shorter labels attract more
            // squatters (cheaper to imitate).
            let zipf = 10.0 / (b.id as f64 + 2.0).powf(0.6);
            let short = 8.0 / b.label.len() as f64;
            boost + zipf + short
        })
        .collect()
}

fn plant_squats(
    config: &SnapshotConfig,
    registry: &BrandRegistry,
    rng: &mut StdRng,
    store: &mut RecordStore,
    stats: &mut SnapshotStats,
) {
    let weights = brand_weights(registry);
    let total_w: f64 = weights.iter().sum();
    // Pre-generate candidate pools lazily per brand (the budget bounds the
    // memory; combo is effectively unbounded so it back-fills any deficit).
    let mut pools: Vec<Option<[Vec<String>; 5]>> = vec![None; registry.len()];
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut planted = 0usize;
    let mut brand_order: Vec<usize> = (0..registry.len()).collect();
    brand_order.shuffle(rng);

    // Allocate counts per brand proportional to weight.
    let mut alloc: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total_w) * config.squatting_records as f64).floor() as usize)
        .collect();
    let mut deficit =
        config.squatting_records - alloc.iter().sum::<usize>().min(config.squatting_records);
    // Give the remainder to the heaviest brands.
    let mut heavy: Vec<usize> = (0..registry.len()).collect();
    heavy.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
    for &b in heavy.iter().cycle().take(registry.len() * 4) {
        if deficit == 0 {
            break;
        }
        alloc[b] += 1;
        deficit -= 1;
    }

    // Global per-type quotas (largest remainder over the whole plant),
    // so the Figure 2 mix survives even when most brands plant only one
    // or two squats.
    let mut quota: [usize; 5] = [0; 5];
    {
        let total = config.squatting_records;
        let mut assigned = 0usize;
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(5);
        for (i, (_, frac)) in TYPE_MIX.iter().enumerate() {
            let exact = total as f64 * frac;
            quota[i] = exact.floor() as usize;
            assigned += quota[i];
            fracs.push((i, exact - exact.floor()));
        }
        fracs.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (i, _) in fracs.into_iter().take(total - assigned) {
            quota[i] += 1;
        }
    }
    let targets = quota;

    for &bid in &brand_order {
        let want = alloc[bid];
        if want == 0 {
            continue;
        }
        let brand = registry.get(bid).expect("brand id");
        let pool = pools[bid].get_or_insert_with(|| build_pool(brand));
        let mut pool_pos = [0usize; 5];
        let mut backfill = 0usize;
        for _ in 0..want {
            if planted >= config.squatting_records {
                return;
            }
            // Pick the type with the largest *relative* remaining quota
            // (proportional-fair depletion), skipping types whose pool
            // for this brand is exhausted.
            let mut order: Vec<usize> = (0..5).collect();
            order.sort_by(|&a, &b| {
                let ra = quota[a] as f64 / targets[a].max(1) as f64;
                let rb = quota[b] as f64 / targets[b].max(1) as f64;
                // total_cmp: a degenerate weight config (zero totals, NaN
                // ratios) must skew the ordering, not panic the synth.
                rb.total_cmp(&ra)
            });
            let mut placed = false;
            for ti in order {
                if quota[ti] == 0 {
                    continue;
                }
                // Advance past already-used candidates.
                while pool_pos[ti] < pool[ti].len() && seen.contains(&pool[ti][pool_pos[ti]]) {
                    pool_pos[ti] += 1;
                }
                if pool_pos[ti] >= pool[ti].len() {
                    continue; // pool dry for this brand
                }
                let dom = pool[ti][pool_pos[ti]].clone();
                pool_pos[ti] += 1;
                seen.insert(dom.clone());
                push_record(&dom, config, rng, store);
                stats.planted_by_type[ti] += 1;
                stats.planted_by_brand[bid] += 1;
                quota[ti] -= 1;
                planted += 1;
                placed = true;
                break;
            }
            if !placed {
                // Every in-quota pool is dry: numbered combo back-fill.
                let dom = format!(
                    "{}-{}{}.{}",
                    brand.label,
                    ["promo", "news", "team", "app", "cloud"][backfill % 5],
                    backfill / 5,
                    ["com", "net", "org", "xyz", "online"][backfill % 5]
                );
                backfill += 1;
                if seen.insert(dom.clone()) {
                    push_record(&dom, config, rng, store);
                    stats.planted_by_type[3] += 1;
                    stats.planted_by_brand[bid] += 1;
                    quota[3] = quota[3].saturating_sub(1);
                    planted += 1;
                }
            }
        }
    }
}

/// Builds per-type candidate pools for one brand, paper type order.
fn build_pool(brand: &squatphi_squat::Brand) -> [Vec<String>; 5] {
    let budget = GenBudget {
        homograph: 400,
        bits: 200,
        typo: 600,
        combo: 800,
        wrong_tld: 25,
    };
    let mut pool: [Vec<String>; 5] = Default::default();
    for c in gen::generate_all(brand, budget) {
        let idx = match c.squat_type {
            SquatType::Homograph => 0,
            SquatType::Bits => 1,
            SquatType::Typo => 2,
            SquatType::Combo => 3,
            SquatType::WrongTld => 4,
        };
        pool[idx].push(c.domain.as_str().to_string());
    }
    pool
}

fn push_record(domain: &str, config: &SnapshotConfig, rng: &mut StdRng, store: &mut RecordStore) {
    if rng.gen_bool(config.subdomain_fraction) {
        let sub = ["www", "mail", "m", "login", "app"][rng.gen_range(0..5)];
        store.push(&format!("{sub}.{domain}"), random_ip(rng));
    } else {
        store.push(domain, random_ip(rng));
    }
}

fn random_ip(rng: &mut StdRng) -> Ipv4Addr {
    // Public-looking unicast space, avoiding 0/10/127/169.254/224+.
    loop {
        let a = rng.gen_range(1..=223u8);
        if a == 10 || a == 127 {
            continue;
        }
        return Ipv4Addr::new(a, rng.gen(), rng.gen(), rng.gen());
    }
}

fn plant_benign(config: &SnapshotConfig, rng: &mut StdRng, store: &mut RecordStore) {
    let tlds = [
        "com", "com", "com", "net", "org", "de", "ru", "co", "io", "info", "fr", "nl", "it", "pl",
        "br",
    ];
    for i in 0..config.benign_records {
        let w1 = BENIGN_WORDS[rng.gen_range(0..BENIGN_WORDS.len())];
        let label = match i % 5 {
            0 => w1.to_string(),
            1 => format!("{w1}{}", rng.gen_range(1..999u32)),
            2 => format!("{w1}{}", BENIGN_WORDS[rng.gen_range(0..BENIGN_WORDS.len())]),
            3 => format!(
                "{w1}-{}",
                BENIGN_WORDS[rng.gen_range(0..BENIGN_WORDS.len())]
            ),
            _ => format!("{}{w1}", BENIGN_WORDS[rng.gen_range(0..BENIGN_WORDS.len())]),
        };
        let tld = tlds[rng.gen_range(0..tlds.len())];
        push_record(&format!("{label}.{tld}"), config, rng, store);
    }
}

/// Returns the Unicode display form of a snapshot domain (IDN-aware);
/// convenience for reports.
pub fn display_domain(domain: &str) -> String {
    idna::to_unicode(domain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (RecordStore, SnapshotStats, BrandRegistry) {
        let reg = BrandRegistry::with_size(40);
        let cfg = SnapshotConfig::tiny();
        let (store, stats) = generate(&cfg, &reg);
        (store, stats, reg)
    }

    #[test]
    fn generates_requested_volume() {
        let (store, stats, _) = small();
        let cfg = SnapshotConfig::tiny();
        assert_eq!(store.len(), stats.total_records);
        // Planting may fall slightly short if pools dedupe, never over.
        let squats: usize = stats.planted_by_type.iter().sum();
        assert!(squats <= cfg.squatting_records);
        assert!(
            squats as f64 >= cfg.squatting_records as f64 * 0.9,
            "planted only {squats}"
        );
        assert!(store.len() >= cfg.benign_records);
    }

    #[test]
    fn deterministic() {
        let reg = BrandRegistry::with_size(20);
        let cfg = SnapshotConfig::tiny();
        let (a, _) = generate(&cfg, &reg);
        let (b, _) = generate(&cfg, &reg);
        assert_eq!(a, b);
    }

    #[test]
    fn combo_dominates_type_mix() {
        let (_, stats, _) = small();
        let combo = stats.planted_by_type[3];
        let total: usize = stats.planted_by_type.iter().sum();
        let frac = combo as f64 / total as f64;
        assert!(
            frac > 0.4 && frac < 0.7,
            "combo fraction {frac} out of band"
        );
    }

    #[test]
    fn all_five_types_planted() {
        let (_, stats, _) = small();
        for (i, n) in stats.planted_by_type.iter().enumerate() {
            assert!(*n > 0, "type index {i} not planted");
        }
    }

    #[test]
    fn brand_skew_present() {
        let (_, stats, reg) = small();
        // vice must be among the heaviest brands.
        let vice = reg.by_label("vice").expect("vice in first 40").id;
        let max = stats.planted_by_brand.iter().max().copied().unwrap_or(0);
        assert!(stats.planted_by_brand[vice] as f64 >= max as f64 * 0.5);
    }

    #[test]
    fn ips_look_public() {
        let (store, _, _) = small();
        for (_, ip) in store.iter().take(500) {
            let o = ip.octets();
            assert!(o[0] >= 1 && o[0] <= 223 && o[0] != 10 && o[0] != 127);
        }
    }
}
