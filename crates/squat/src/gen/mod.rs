//! Squatting-candidate generators (the DNSTwist/URLCrazy direction).
//!
//! Each generator takes a brand label and lazily yields candidate *core
//! labels* (or full domains for wrongTLD), so a caller pays only for the
//! candidates it takes. All output is deterministic given the input;
//! randomized subset selection is left to callers holding an RNG.

mod bits;
mod combo;
mod homograph;
#[cfg(test)]
mod oracle;
mod typo;
mod wrongtld;

pub use bits::bits_candidates;
pub use combo::combo_candidates;
pub use homograph::homograph_candidates;
pub use typo::{typo_candidates, TypoOp};
pub use wrongtld::wrong_tld_candidates;

use crate::{Brand, SquatType};
use squatphi_domain::{idna, DomainName};

/// Per-type generation limits, so callers can bound the candidate set when
/// planting populations (combo space is effectively unbounded).
#[derive(Debug, Clone, Copy)]
pub struct GenBudget {
    /// Max homograph candidates.
    pub homograph: usize,
    /// Max bits candidates.
    pub bits: usize,
    /// Max typo candidates.
    pub typo: usize,
    /// Max combo candidates.
    pub combo: usize,
    /// Max wrongTLD candidates.
    pub wrong_tld: usize,
}

impl GenBudget {
    /// The limit for one squatting type.
    pub fn limit(&self, squat_type: SquatType) -> usize {
        match squat_type {
            SquatType::Homograph => self.homograph,
            SquatType::Bits => self.bits,
            SquatType::Typo => self.typo,
            SquatType::Combo => self.combo,
            SquatType::WrongTld => self.wrong_tld,
        }
    }
}

impl Default for GenBudget {
    fn default() -> Self {
        GenBudget {
            homograph: 200,
            bits: 100,
            typo: 300,
            combo: 400,
            wrong_tld: 30,
        }
    }
}

/// A generated squatting candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Fully-qualified ASCII (punycoded where needed) domain.
    pub domain: DomainName,
    /// The squatting type this candidate belongs to.
    pub squat_type: SquatType,
}

/// One brand's candidates of one type, generated as they are pulled.
pub type Candidates<'a> = Box<dyn Iterator<Item = Candidate> + 'a>;

/// TLDs squatters fall back to when they do not keep the brand's own.
const CHEAP_TLDS: [&str; 10] = [
    "com", "net", "org", "tk", "ml", "pw", "top", "online", "bid", "ga",
];

/// Generates candidates of all five types for `brand`, bounded by `budget`:
/// the five [`candidates`] sequences in [`SquatType::ALL`] order.
pub fn generate_all(brand: &Brand, budget: GenBudget) -> Vec<Candidate> {
    SquatType::ALL
        .into_iter()
        .flat_map(|ty| candidates(brand, ty, budget.limit(ty)))
        .collect()
}

/// The `squat_type` candidates of `brand`, at most `limit` of them,
/// generated one at a time as the caller pulls them.
///
/// The label generators' first `limit` labels are paired with plausible
/// TLDs: squatters keep the brand's own TLD when they can and fall back to
/// cheap TLDs otherwise — the `i`-th label (counted before any is dropped)
/// takes the own TLD when `i % 3 == 0`, else a cheap one, round-robin (the
/// DNS snapshot generator randomizes further). A label whose ASCII name
/// does not parse (over 63 bytes once punycoded, say) is dropped. WrongTLD
/// yields the first `limit` valid names instead.
pub fn candidates(brand: &Brand, squat_type: SquatType, limit: usize) -> Candidates<'_> {
    let label = brand.label.as_str();
    let own_tld = brand.domain.suffix();
    let labels: Box<dyn Iterator<Item = String>> = match squat_type {
        SquatType::Homograph => Box::new(homograph_candidates(label)),
        SquatType::Bits => Box::new(bits_candidates(label)),
        SquatType::Typo => Box::new(typo_candidates(label).map(|(l, _)| l)),
        SquatType::Combo => Box::new(combo_candidates(label)),
        SquatType::WrongTld => {
            return Box::new(
                wrong_tld_candidates(label, own_tld)
                    .take(limit)
                    .map(|domain| Candidate {
                        domain,
                        squat_type: SquatType::WrongTld,
                    }),
            )
        }
    };
    // One buffer per sequence: each label's ASCII name is written into it
    // once and parsed once.
    let mut ascii = String::new();
    Box::new(labels.take(limit).enumerate().filter_map(move |(i, l)| {
        let tld = if i.is_multiple_of(3) {
            own_tld
        } else {
            CHEAP_TLDS[i % CHEAP_TLDS.len()]
        };
        ascii.clear();
        idna::to_ascii_into(&l, &mut ascii).ok()?;
        ascii.push('.');
        ascii.push_str(tld);
        let domain = DomainName::parse(&ascii).ok()?;
        Some(Candidate { domain, squat_type })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Brand, BrandRegistry};
    use squatphi_prop::{check, prop_assert, prop_assert_eq, Gen};

    #[test]
    fn generates_all_five_types_for_facebook() {
        let reg = BrandRegistry::with_size(10);
        let fb = reg.by_label("facebook").unwrap();
        let cands = generate_all(fb, GenBudget::default());
        for ty in SquatType::ALL {
            assert!(
                cands.iter().any(|c| c.squat_type == ty),
                "missing type {ty} for facebook"
            );
        }
    }

    #[test]
    fn budget_bounds_respected() {
        let reg = BrandRegistry::with_size(10);
        let fb = reg.by_label("facebook").unwrap();
        let b = GenBudget {
            homograph: 3,
            bits: 3,
            typo: 3,
            combo: 3,
            wrong_tld: 3,
        };
        let cands = generate_all(fb, b);
        for ty in SquatType::ALL {
            assert!(cands.iter().filter(|c| c.squat_type == ty).count() <= 3);
        }
    }

    /// FNV-1a over `domain \t type \n` of every candidate, in order.
    fn digest(cands: &[Candidate]) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in cands {
            for b in c.domain.as_str().bytes().chain([b'\t']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            for b in c.squat_type.name().bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        (cands.len(), h)
    }

    fn uniform(limit: usize) -> GenBudget {
        GenBudget {
            homograph: limit,
            bits: limit,
            typo: limit,
            combo: limit,
            wrong_tld: limit,
        }
    }

    /// Registry brands plus labels long enough that some of their combo and
    /// IDN candidates overflow 63 bytes and are dropped after their TLD
    /// slot was counted.
    fn golden_brands() -> Vec<Brand> {
        let reg = BrandRegistry::paper();
        let mut brands: Vec<Brand> = reg.brands().iter().step_by(23).cloned().collect();
        for (label, tld) in [
            (
                "paypalsecureaccountverificationcenterloginservicesupport",
                "com",
            ),
            ("mobilebankingsecureloginverifyaccountwalletsupport", "tk"),
            ("m-w1", "net"),
            ("x", "io"),
        ] {
            brands.push(brand(label, tld));
        }
        brands
    }

    fn brand(label: &str, tld: &str) -> Brand {
        Brand {
            id: 0,
            label: label.to_string(),
            domain: DomainName::from_parts(label, tld).unwrap(),
            category: crate::Category::Business,
            alexa_rank: 1,
            phishtank_target: false,
        }
    }

    fn only(budget: GenBudget, ty: SquatType, brand: &Brand) -> Vec<Candidate> {
        let mut list = oracle::generate_all(brand, budget);
        list.retain(|c| c.squat_type == ty);
        list
    }

    /// Each per-type sequence is the eager oracle's list of that type at
    /// the same limit, and a prefix of it at any larger limit — which is
    /// what the snapshot planter relies on when it stops pulling early.
    /// Long labels make the filter drop candidates after their TLD slot.
    #[test]
    fn per_type_sequences_are_prefixes_of_the_eager_lists() {
        let gen = |g: &mut Gen| {
            let label = match g.below(2) {
                0 => g.string("a-z0-9", 1..=8),
                _ => format!(
                    "{}{}{}",
                    g.char("a-z"),
                    g.string("a-z0-9-", 0..=57),
                    g.char("a-z0-9")
                ),
            };
            (
                label,
                g.below(4) as usize,
                g.below(60) as usize,
                g.below(200) as usize,
            )
        };
        check(
            "per_type_sequences_are_prefixes_of_the_eager_lists",
            48,
            gen,
            |(label, tld, limit, extra)| {
                let brand = brand(&label, ["com", "tk", "net", "io"][tld]);
                for ty in SquatType::ALL {
                    let got: Vec<Candidate> = candidates(&brand, ty, limit).collect();
                    prop_assert_eq!(&got, &only(uniform(limit), ty, &brand));
                    let wide = only(uniform(limit + extra), ty, &brand);
                    prop_assert!(wide.starts_with(&got), "{ty} at {limit} is not a prefix");
                    let pulled: Vec<Candidate> = candidates(&brand, ty, limit + extra)
                        .take(got.len())
                        .collect();
                    prop_assert_eq!(&pulled, &got);
                }
                Ok(())
            },
        );
    }

    /// Pins `generate_all` (every domain and type, in order) over all 702
    /// brands at the snapshot planter's budget; the digest was taken from
    /// the eager generators this lazy path replaced.
    #[test]
    fn generate_all_golden_over_the_paper_registry() {
        let budget = GenBudget {
            homograph: 400,
            bits: 200,
            typo: 600,
            combo: 800,
            wrong_tld: 25,
        };
        let mut all = Vec::new();
        for brand in BrandRegistry::paper().brands() {
            all.extend(generate_all(brand, budget));
        }
        assert_eq!(digest(&all), (370_379, 15_911_169_911_794_292_516));
    }

    /// The same pin at the default budget, the event stream's pool budget
    /// and uniform limits 0, 1 and 3, on a registry subset plus long labels.
    #[test]
    fn generate_all_golden_at_small_budgets() {
        let pool = GenBudget {
            homograph: 60,
            bits: 40,
            typo: 120,
            combo: 200,
            wrong_tld: 10,
        };
        let brands = golden_brands();
        let mut got = Vec::new();
        for budget in [
            GenBudget::default(),
            pool,
            uniform(0),
            uniform(1),
            uniform(3),
        ] {
            let mut all = Vec::new();
            for brand in &brands {
                all.extend(generate_all(brand, budget));
            }
            got.push(digest(&all));
        }
        assert_eq!(
            got,
            vec![
                (16_343, 6_473_998_657_130_817_027),
                (11_247, 15_521_935_258_404_265_285),
                (0, 14_695_981_039_346_656_037),
                (174, 17_047_659_900_644_432_035),
                (523, 3_185_718_508_586_253_774),
            ]
        );
    }

    #[test]
    fn candidates_never_equal_the_brand_domain() {
        let reg = BrandRegistry::with_size(10);
        for brand in reg.brands() {
            for c in generate_all(brand, GenBudget::default()) {
                assert_ne!(
                    c.domain, brand.domain,
                    "generator produced the brand itself for {}",
                    brand.label
                );
            }
        }
    }
}
