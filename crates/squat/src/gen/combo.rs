//! Combo-squatting generator (paper §3.1, after Kintis et al.): the brand
//! label concatenated with extra words, joined by hyphens. Combo domains
//! are the cheapest to register — arbitrary words can be attached — which
//! is why they dominate the squatting population (56% in Figure 2).

use crate::words::COMBO_WORDS;

/// Combo candidates for a label, generated lazily. Produces `word-brand`,
/// `brand-word`, `brand-word1word2`-style attachments and the single-letter
/// tail combos seen in the wild (`facebook-c`). Head and tail attachments
/// alternate in the output so budget-truncated prefixes stay diverse.
///
/// ```
/// use squatphi_squat::gen::combo_candidates;
/// let c: Vec<String> = combo_candidates("facebook").collect();
/// assert!(c.contains(&"facebook-story".to_string()));
/// assert!(c.contains(&"go-facebook".to_string()));
/// ```
pub fn combo_candidates(label: &str) -> impl Iterator<Item = String> + '_ {
    let attached = COMBO_WORDS
        .iter()
        .flat_map(move |w| [format!("{label}-{w}"), format!("{w}-{label}")]);
    // Fused head words: "go-uberfreight" attaches "freight" *inside* the
    // token; model as word-brandword fusions for a few service words.
    let fused = ["freight", "pay", "store", "support", "mail"]
        .into_iter()
        .flat_map(move |w| {
            [
                format!("go-{label}{w}"),
                format!("get-{label}{w}"),
                format!("my{label}-{w}"),
            ]
        });
    // Single-letter tails (facebook-c.com in Table 10).
    let letters = ('a'..='e').map(move |c| format!("{label}-{c}"));
    // Double-word tails (buy-bitcoin-with-paypal style chains).
    let chains = ["secure-{}-login", "{}-account-verify", "www-{}"]
        .into_iter()
        .map(move |pattern| pattern.replace("{}", label));
    attached.chain(fused).chain(letters).chain(chains)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn combo_list(label: &str) -> Vec<String> {
        combo_candidates(label).collect()
    }

    #[test]
    fn paper_table10_patterns() {
        let c = combo_list("facebook");
        assert!(c.contains(&"facebook-story".to_string()), "Table 1");
        assert!(c.contains(&"facebook-c".to_string()), "Table 10");
        let u = combo_list("uber");
        assert!(u.contains(&"go-uberfreight".to_string()), "Fig 14b");
        let p = combo_list("paypal");
        assert!(p.contains(&"paypal-cash".to_string()), "Table 10");
        let m = combo_list("microsoft");
        assert!(m.contains(&"live-microsoft".to_string()), "Fig 14c style");
        let a = combo_list("adp");
        assert!(a.contains(&"mobile-adp".to_string()), "Fig 14d");
    }

    #[test]
    fn all_contain_brand_and_hyphen() {
        for c in combo_candidates("citi") {
            assert!(c.contains("citi"), "{c} lost the brand");
            assert!(c.contains('-'), "{c} is not hyphenated");
        }
    }

    #[test]
    fn valid_dns_labels() {
        for c in combo_candidates("santander") {
            assert!(!c.starts_with('-') && !c.ends_with('-'));
            assert!(c.len() <= 63, "{c} too long");
            assert!(c
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b == b'-' || b.is_ascii_digit()));
        }
    }

    #[test]
    fn head_and_tail_variants_both_present() {
        let c = combo_list("ebay");
        assert!(c.contains(&"ebay-selling".to_string()));
        assert!(c.contains(&"selling-ebay".to_string()));
    }
}
