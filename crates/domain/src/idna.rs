//! IDNA-style conversions between Unicode and ASCII domain forms.
//!
//! This is a deliberately small IDNA: it handles the `xn--` ACE prefix and
//! per-label punycode, which is all the homograph-squatting pipeline needs
//! (no nameprep/UTS-46 mapping tables — our inputs are already lower-case).

use crate::punycode::{self, PunycodeError};

/// The ASCII-compatible-encoding prefix from RFC 5890.
pub const ACE_PREFIX: &str = "xn--";

/// Converts a (possibly Unicode) dotted domain into its ASCII form, encoding
/// each non-ASCII label with punycode and the `xn--` prefix.
///
/// ```
/// use squatphi_domain::idna::to_ascii;
/// assert_eq!(to_ascii("fàcebook.com").unwrap(), "xn--fcebook-8va.com");
/// assert_eq!(to_ascii("plain.com").unwrap(), "plain.com");
/// ```
pub fn to_ascii(domain: &str) -> Result<String, PunycodeError> {
    let mut out = String::with_capacity(domain.len() + 8);
    to_ascii_into(domain, &mut out)?;
    Ok(out)
}

/// [`to_ascii`], appending to `out` instead of allocating. On error `out`
/// holds a partial conversion.
pub fn to_ascii_into(domain: &str, out: &mut String) -> Result<(), PunycodeError> {
    for (i, label) in domain.split('.').enumerate() {
        if i > 0 {
            out.push('.');
        }
        if label.is_ascii() {
            out.push_str(label);
        } else {
            out.push_str(ACE_PREFIX);
            punycode::encode_into(label, out)?;
        }
    }
    Ok(())
}

/// Converts an ASCII domain into its Unicode display form, decoding each
/// `xn--` label. Labels that fail to decode are kept verbatim (browsers do
/// the same rather than erroring on display).
///
/// ```
/// use squatphi_domain::idna::to_unicode;
/// assert_eq!(to_unicode("xn--fcebook-8va.com"), "fàcebook.com");
/// assert_eq!(to_unicode("plain.com"), "plain.com");
/// ```
pub fn to_unicode(domain: &str) -> String {
    domain
        .split('.')
        .map(|label| match label.strip_prefix(ACE_PREFIX) {
            Some(rest) => punycode::decode(rest).unwrap_or_else(|_| label.to_string()),
            None => label.to_string(),
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// Whether any label of the ASCII domain is an ACE (`xn--`) label.
pub fn is_idn(domain: &str) -> bool {
    domain.split('.').any(|l| l.starts_with(ACE_PREFIX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_paper_example() {
        let ascii = to_ascii("fàcebook.com").unwrap();
        assert_eq!(ascii, "xn--fcebook-8va.com");
        assert_eq!(to_unicode(&ascii), "fàcebook.com");
    }

    #[test]
    fn ascii_passthrough() {
        assert_eq!(to_ascii("faceb00k.pw").unwrap(), "faceb00k.pw");
        assert!(!is_idn("faceb00k.pw"));
    }

    #[test]
    fn only_affected_labels_are_encoded() {
        let ascii = to_ascii("mail.gооgle.com").unwrap(); // Cyrillic о
        let parts: Vec<&str> = ascii.split('.').collect();
        assert_eq!(parts[0], "mail");
        assert!(parts[1].starts_with(ACE_PREFIX));
        assert_eq!(parts[2], "com");
        assert!(is_idn(&ascii));
        assert_eq!(to_unicode(&ascii), "mail.gооgle.com");
    }

    #[test]
    fn undecodable_ace_label_kept_verbatim() {
        // "xn--" followed by an invalid digit sequence.
        assert_eq!(to_unicode("xn--!!!.com"), "xn--!!!.com");
    }
}
