//! Validated domain names.

use crate::tld::split_suffix;

/// Errors produced when parsing a [`DomainName`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// The string was empty or consisted only of dots.
    Empty,
    /// A label was empty (`a..b`), too long (>63 bytes) or the whole name
    /// exceeded 253 bytes.
    BadLength(String),
    /// A label contained a character outside `[a-z0-9-]` (after lowering)
    /// and was not valid UTF-8 IDN material.
    BadCharacter(char),
    /// A label started or ended with a hyphen.
    HyphenEdge(String),
    /// No known public suffix — the name cannot be split into
    /// (prefix, suffix).
    UnknownSuffix(String),
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::Empty => write!(f, "empty domain"),
            DomainError::BadLength(l) => write!(f, "label or name too long: {l:?}"),
            DomainError::BadCharacter(c) => write!(f, "invalid character {c:?}"),
            DomainError::HyphenEdge(l) => write!(f, "label has leading/trailing hyphen: {l:?}"),
            DomainError::UnknownSuffix(d) => write!(f, "no known public suffix in {d:?}"),
        }
    }
}

impl std::error::Error for DomainError {}

/// A validated, lower-cased, fully-qualified domain name.
///
/// The name is stored in its ASCII (possibly punycoded) form. Use
/// [`crate::idna::to_unicode`] for the display form. Squatting analysis
/// operates on the *core label* — the left-most label of the registrable
/// domain — mirroring the paper's rule of ignoring subdomains
/// (`mail.google-app.de` is matched via `google-app`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    full: String,
    /// Byte offset where the public suffix starts (after the final dot).
    suffix_start: usize,
    /// Byte range of the core (registrable) label.
    core_start: usize,
    core_end: usize,
}

impl DomainName {
    /// Parses and validates a domain name.
    ///
    /// Accepts ASCII names (including `xn--` punycode labels); the input is
    /// lower-cased. Unicode input should first go through
    /// [`crate::idna::to_ascii`].
    ///
    /// ```
    /// use squatphi_domain::DomainName;
    /// let d = DomainName::parse("Mail.Google-App.de").unwrap();
    /// assert_eq!(d.as_str(), "mail.google-app.de");
    /// assert_eq!(d.core_label(), "google-app");
    /// assert_eq!(d.suffix(), "de");
    /// ```
    pub fn parse(input: &str) -> Result<Self, DomainError> {
        Self::parse_reuse(input, String::new())
    }

    /// [`parse`](Self::parse), recycling `storage`'s allocation for the
    /// name's backing string. The scan hot loop parses millions of
    /// records; threading one buffer through
    /// [`into_string`](Self::into_string) and back saves a malloc/free
    /// per record. `storage` is cleared first; its contents are ignored.
    pub fn parse_reuse(input: &str, mut storage: String) -> Result<Self, DomainError> {
        // Fast path for the scan hot loop: an input that is already
        // trimmed, lower-case ASCII (the overwhelming majority of zone
        // records) validates in one pass and copies once. Anything with
        // whitespace, uppercase, edge dots or non-ASCII falls through to
        // the normalizing path below; both paths agree byte-for-byte.
        match Self::validate_clean(input) {
            Some(Ok(())) => {
                storage.clear();
                storage.push_str(input);
                return Self::finish(storage);
            }
            Some(Err(e)) => return Err(e),
            None => {}
        }
        storage.clear();
        storage.push_str(input.trim().trim_matches('.'));
        storage.make_ascii_lowercase();
        let lowered = storage;
        if lowered.is_empty() {
            return Err(DomainError::Empty);
        }
        if lowered.len() > 253 {
            return Err(DomainError::BadLength(lowered));
        }
        for label in lowered.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(DomainError::BadLength(label.to_string()));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(DomainError::HyphenEdge(label.to_string()));
            }
            for c in label.chars() {
                if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-') {
                    return Err(DomainError::BadCharacter(c));
                }
            }
        }
        Self::finish(lowered)
    }

    /// One-pass validation of an input that needs no trimming or lowering:
    /// `Some(verdict)` when the input consists solely of `[a-z0-9.-]` with
    /// no leading/trailing dot (so normalization would be the identity and
    /// the verdict matches the normalizing path), `None` when the input
    /// needs the full treatment.
    fn validate_clean(input: &str) -> Option<Result<(), DomainError>> {
        let bytes = input.as_bytes();
        if bytes.is_empty() {
            return Some(Err(DomainError::Empty));
        }
        if bytes[0] == b'.' || bytes[bytes.len() - 1] == b'.' {
            return None; // edge dots: let trim_matches('.') decide
        }
        if bytes.len() > 253 {
            // Only a clean over-long name can take this exit; a dirty one
            // must be normalized first so the reported string matches.
            if !bytes
                .iter()
                .all(|&b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'.')
            {
                return None;
            }
            return Some(Err(DomainError::BadLength(input.to_string())));
        }
        // Validate label-by-label in the same order as the normalizing
        // path: length, hyphen edges, then characters.
        let mut start = 0usize;
        for i in 0..=bytes.len() {
            if i < bytes.len() && bytes[i] != b'.' {
                continue;
            }
            let label = &bytes[start..i];
            // Any byte outside the clean set (uppercase, whitespace,
            // non-ASCII) defers to the normalizing path, so every error
            // reported here carries the same payload it would there.
            for &b in label {
                if !(b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-') {
                    return None;
                }
            }
            if label.is_empty() || label.len() > 63 {
                return Some(Err(DomainError::BadLength(
                    String::from_utf8_lossy(label).into_owned(),
                )));
            }
            if label[0] == b'-' || label[label.len() - 1] == b'-' {
                return Some(Err(DomainError::HyphenEdge(
                    String::from_utf8_lossy(label).into_owned(),
                )));
            }
            start = i + 1;
        }
        Some(Ok(()))
    }

    /// Shared tail of both parse paths: suffix split and offset layout
    /// over an already-validated, normalized name.
    fn finish(lowered: String) -> Result<Self, DomainError> {
        let (prefix, suffix) =
            split_suffix(&lowered).ok_or_else(|| DomainError::UnknownSuffix(lowered.clone()))?;
        let suffix_start = lowered.len() - suffix.len();
        // Core label: the last label of the prefix.
        let core_start = match prefix.rfind('.') {
            Some(p) => p + 1,
            None => 0,
        };
        let core_end = prefix.len();
        Ok(DomainName {
            full: lowered,
            suffix_start,
            core_start,
            core_end,
        })
    }

    /// The full lower-cased ASCII name, e.g. `mail.google-app.de`.
    pub fn as_str(&self) -> &str {
        &self.full
    }

    /// Consumes the name, returning its backing string (for buffer
    /// recycling with [`parse_reuse`](Self::parse_reuse)).
    pub fn into_string(self) -> String {
        self.full
    }

    /// The public suffix, e.g. `de` or `com.ua`.
    pub fn suffix(&self) -> &str {
        &self.full[self.suffix_start..]
    }

    /// The core (registrable) label used for squatting analysis,
    /// e.g. `google-app` for `mail.google-app.de`.
    pub fn core_label(&self) -> &str {
        &self.full[self.core_start..self.core_end]
    }

    /// The registrable domain (`core_label.suffix`),
    /// e.g. `google-app.de` for `mail.google-app.de`.
    pub fn registrable(&self) -> String {
        format!("{}.{}", self.core_label(), self.suffix())
    }

    /// Whether the name has labels left of the registrable domain.
    pub fn has_subdomain(&self) -> bool {
        self.core_start > 0
    }

    /// Whether the core label is an IDN (punycode) label.
    pub fn is_idn(&self) -> bool {
        self.core_label().starts_with("xn--")
    }

    /// Builds `core.suffix` and [`parse`](Self::parse)s it: every label is
    /// validated and the suffix must be a known one, exactly as if the
    /// joined string had been parsed.
    pub fn from_parts(core: &str, suffix: &str) -> Result<Self, DomainError> {
        Self::parse(&format!("{core}.{suffix}"))
    }
}

impl std::fmt::Display for DomainName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so `{:<40}` column layouts in report
        // output actually align.
        f.pad(&self.full)
    }
}

impl std::str::FromStr for DomainName {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple() {
        let d = DomainName::parse("facebook.com").unwrap();
        assert_eq!(d.core_label(), "facebook");
        assert_eq!(d.suffix(), "com");
        assert_eq!(d.registrable(), "facebook.com");
        assert!(!d.has_subdomain());
    }

    #[test]
    fn parses_multi_suffix() {
        let d = DomainName::parse("goofle.com.ua").unwrap();
        assert_eq!(d.core_label(), "goofle");
        assert_eq!(d.suffix(), "com.ua");
    }

    #[test]
    fn subdomains_are_ignored_for_core() {
        let d = DomainName::parse("mail.google-app.de").unwrap();
        assert_eq!(d.core_label(), "google-app");
        assert!(d.has_subdomain());
        assert_eq!(d.registrable(), "google-app.de");
    }

    #[test]
    fn lowercases_and_trims() {
        let d = DomainName::parse(" FaceBook.COM. ").unwrap();
        assert_eq!(d.as_str(), "facebook.com");
    }

    #[test]
    fn idn_detection() {
        let d = DomainName::parse("xn--fcebook-8va.com").unwrap();
        assert!(d.is_idn());
        assert_eq!(d.core_label(), "xn--fcebook-8va");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(DomainName::parse(""), Err(DomainError::Empty)));
        assert!(matches!(DomainName::parse("..."), Err(DomainError::Empty)));
        assert!(matches!(
            DomainName::parse("exa mple.com"),
            Err(DomainError::BadCharacter(' '))
        ));
        assert!(matches!(
            DomainName::parse("-bad.com"),
            Err(DomainError::HyphenEdge(_))
        ));
        assert!(matches!(
            DomainName::parse("bad-.com"),
            Err(DomainError::HyphenEdge(_))
        ));
        assert!(matches!(
            DomainName::parse("noval.notatld"),
            Err(DomainError::UnknownSuffix(_))
        ));
        let long = format!("{}.com", "a".repeat(64));
        assert!(matches!(
            DomainName::parse(&long),
            Err(DomainError::BadLength(_))
        ));
        let too_long = format!("{}.com", ["abcdefgh"; 40].join("."));
        assert!(matches!(
            DomainName::parse(&too_long),
            Err(DomainError::BadLength(_))
        ));
    }

    #[test]
    fn rejects_bare_suffix() {
        assert!(DomainName::parse("com").is_err());
        assert!(DomainName::parse("com.ua").is_err());
    }

    #[test]
    fn ordering_is_lexicographic_on_full_name() {
        let a = DomainName::parse("a.com").unwrap();
        let b = DomainName::parse("b.com").unwrap();
        assert!(a < b);
    }
}
