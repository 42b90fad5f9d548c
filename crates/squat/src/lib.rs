//! Squatting-domain generation and detection (paper §3.1).
//!
//! The paper extends DNSTwist/URLCrazy with (1) a complete homograph table,
//! (2) a wrongTLD module and (3) a combo-squatting module, then classifies
//! 224M DNS records into five **orthogonal** squatting types. This crate
//! provides both directions:
//!
//! * [`gen`] — given a brand, produce candidate squatting domains of each
//!   type (the DNSTwist direction, used to plant populations into the
//!   synthetic DNS snapshot and for Table 1),
//! * [`detect`] — given an arbitrary DNS name and the brand registry,
//!   decide in ~O(len) whether it squats on some brand and which type
//!   (the scan direction, used over the full snapshot for Figure 2),
//! * [`brand`] — the 702-brand registry (Alexa categories ∪ PhishTank
//!   targets, merged by domain, per §3.1 "Brand Selection").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brand;
pub mod detect;
pub mod gen;
mod index;
pub mod pregen;
pub mod words;

pub use brand::{Brand, BrandId, BrandRegistry, Category};
pub use detect::{ClassifyStats, SquatDetector, SquatMatch};
pub use gen::{generate_all, GenBudget};

/// The five orthogonal squatting techniques from §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SquatType {
    /// Visual look-alike: confusable Unicode (IDN) or ASCII glyph tricks
    /// (`faceb00k`, `xn--fcebook-8va`).
    Homograph,
    /// Exactly one bit flipped in one ASCII byte (`facebnok`).
    Bits,
    /// Mis-typing: insertion, omission, repetition, adjacent swap
    /// (`facebo0ok` is *insertion*, `fcaebook` is a swap).
    Typo,
    /// Brand concatenated with extra words, hyphen-joined
    /// (`facebook-story`, `go-uberfreight`).
    Combo,
    /// Same label under a different TLD (`facebook.audi`).
    WrongTld,
}

impl SquatType {
    /// All five types in the paper's presentation order.
    pub const ALL: [SquatType; 5] = [
        SquatType::Homograph,
        SquatType::Bits,
        SquatType::Typo,
        SquatType::Combo,
        SquatType::WrongTld,
    ];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            SquatType::Homograph => "Homograph",
            SquatType::Bits => "Bits",
            SquatType::Typo => "Typo",
            SquatType::Combo => "Combo",
            SquatType::WrongTld => "WrongTLD",
        }
    }
}

impl std::fmt::Display for SquatType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_five_unique_types() {
        let mut v = SquatType::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(SquatType::WrongTld.to_string(), "WrongTLD");
        assert_eq!(SquatType::Homograph.to_string(), "Homograph");
    }
}
