//! WrongTLD-squatting generator (paper §3.1): keep the brand label, swap
//! the TLD (`facebook.audi`). The paper introduces this module because
//! DNSTwist/URLCrazy only mutate the label and miss e.g. `facebookj.es`.

use squatphi_domain::tld::WRONG_TLD_POOL;
use squatphi_domain::DomainName;

/// WrongTLD candidates: the brand label under every plausible alternative
/// TLD (excluding the brand's own suffix), generated lazily in pool order.
///
/// ```
/// use squatphi_squat::gen::wrong_tld_candidates;
/// let c: Vec<_> = wrong_tld_candidates("facebook", "com").collect();
/// assert!(c.iter().any(|d| d.as_str() == "facebook.audi"));
/// assert!(!c.iter().any(|d| d.suffix() == "com"));
/// ```
pub fn wrong_tld_candidates<'a>(
    label: &'a str,
    own_suffix: &'a str,
) -> impl Iterator<Item = DomainName> + 'a {
    WRONG_TLD_POOL
        .iter()
        .filter(move |t| **t != own_suffix)
        .filter_map(move |t| DomainName::from_parts(label, t).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_present() {
        let c: Vec<_> = wrong_tld_candidates("facebook", "com").collect();
        assert!(c.iter().any(|d| d.as_str() == "facebook.audi"), "Table 1");
    }

    #[test]
    fn own_suffix_excluded() {
        let c: Vec<_> = wrong_tld_candidates("bitcoin", "org").collect();
        assert!(!c.iter().any(|d| d.suffix() == "org"));
        assert!(c.iter().all(|d| d.core_label() == "bitcoin"));
    }

    #[test]
    fn count_matches_pool() {
        // "com" is not in WRONG_TLD_POOL, so nothing is filtered.
        assert_eq!(
            wrong_tld_candidates("uber", "com").count(),
            WRONG_TLD_POOL.len()
        );
        assert_eq!(
            wrong_tld_candidates("uber", "tk").count(),
            WRONG_TLD_POOL.len() - 1
        );
    }
}
