//! RFC 3492 Punycode, implemented from scratch.
//!
//! Punycode is the bootstring encoding used by internationalized domain
//! names: `fàcebook` ⇄ `fcebook-8va` (carried in DNS as `xn--fcebook-8va`).
//! Homograph squatting (paper §3.1, Figure 1) relies on exactly this
//! translation, so the reproduction needs a bit-faithful codec rather than
//! an approximation.

/// Bootstring parameters fixed by RFC 3492 §5.
const BASE: u32 = 36;
const TMIN: u32 = 1;
const TMAX: u32 = 26;
const SKEW: u32 = 38;
const DAMP: u32 = 700;
const INITIAL_BIAS: u32 = 72;
const INITIAL_N: u32 = 128;
const DELIMITER: char = '-';

/// Errors produced by [`decode`] / [`encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PunycodeError {
    /// Decoded code point exceeded `char::MAX` or arithmetic overflowed.
    Overflow,
    /// Input contained a character outside the basic (ASCII) range where
    /// only basic code points are allowed, or an invalid base-36 digit.
    InvalidDigit(char),
    /// The decoded value is not a valid Unicode scalar.
    InvalidCodePoint(u32),
}

impl std::fmt::Display for PunycodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PunycodeError::Overflow => write!(f, "punycode arithmetic overflow"),
            PunycodeError::InvalidDigit(c) => write!(f, "invalid punycode digit {c:?}"),
            PunycodeError::InvalidCodePoint(n) => write!(f, "invalid code point U+{n:X}"),
        }
    }
}

impl std::error::Error for PunycodeError {}

fn adapt(mut delta: u32, num_points: u32, first_time: bool) -> u32 {
    delta /= if first_time { DAMP } else { 2 };
    delta += delta / num_points;
    let mut k = 0;
    while delta > ((BASE - TMIN) * TMAX) / 2 {
        delta /= BASE - TMIN;
        k += BASE;
    }
    k + (((BASE - TMIN + 1) * delta) / (delta + SKEW))
}

fn digit_to_char(d: u32) -> char {
    debug_assert!(d < BASE);
    if d < 26 {
        (b'a' + d as u8) as char
    } else {
        (b'0' + (d - 26) as u8) as char
    }
}

fn char_to_digit(c: char) -> Option<u32> {
    match c {
        'a'..='z' => Some(c as u32 - 'a' as u32),
        'A'..='Z' => Some(c as u32 - 'A' as u32),
        '0'..='9' => Some(c as u32 - '0' as u32 + 26),
        _ => None,
    }
}

/// Encodes a Unicode string into its Punycode form (no `xn--` prefix).
///
/// ```
/// use squatphi_domain::punycode::encode;
/// assert_eq!(encode("fàcebook").unwrap(), "fcebook-8va");
/// ```
pub fn encode(input: &str) -> Result<String, PunycodeError> {
    let mut output = String::with_capacity(input.len() + 8);
    encode_into(input, &mut output)?;
    Ok(output)
}

/// [`encode`], appending to `output` instead of allocating (the squat
/// generators write `xn--` + label + `.` + TLD into one reused buffer).
/// On error `output` holds a partial encoding.
pub fn encode_into(input: &str, output: &mut String) -> Result<(), PunycodeError> {
    let len = input.chars().count() as u32;

    // Copy the basic code points first. RFC 3492 appends the delimiter
    // even to pure-ASCII input, though IDNA only encodes non-ASCII labels.
    let mut b: u32 = 0;
    for c in input.chars().filter(char::is_ascii) {
        output.push(c);
        b += 1;
    }
    if b > 0 {
        output.push(DELIMITER);
    }
    if b == len {
        return Ok(());
    }

    let mut n = INITIAL_N;
    let mut delta: u32 = 0;
    let mut bias = INITIAL_BIAS;
    let mut handled = b;

    while handled < len {
        // Find the smallest unhandled code point >= n.
        let m = input
            .chars()
            .map(|c| c as u32)
            .filter(|&c| c >= n)
            .min()
            .expect("at least one unhandled non-basic code point");
        delta = delta
            .checked_add(
                (m - n)
                    .checked_mul(handled + 1)
                    .ok_or(PunycodeError::Overflow)?,
            )
            .ok_or(PunycodeError::Overflow)?;
        n = m;
        for c in input.chars() {
            let c = c as u32;
            if c < n {
                delta = delta.checked_add(1).ok_or(PunycodeError::Overflow)?;
            }
            if c == n {
                let mut q = delta;
                let mut k = BASE;
                loop {
                    let t = if k <= bias {
                        TMIN
                    } else if k >= bias + TMAX {
                        TMAX
                    } else {
                        k - bias
                    };
                    if q < t {
                        break;
                    }
                    output.push(digit_to_char(t + (q - t) % (BASE - t)));
                    q = (q - t) / (BASE - t);
                    k += BASE;
                }
                output.push(digit_to_char(q));
                bias = adapt(delta, handled + 1, handled == b);
                delta = 0;
                handled += 1;
            }
        }
        delta = delta.checked_add(1).ok_or(PunycodeError::Overflow)?;
        n += 1;
    }
    Ok(())
}

/// Decodes a Punycode string (no `xn--` prefix) back into Unicode.
///
/// ```
/// use squatphi_domain::punycode::decode;
/// assert_eq!(decode("fcebook-8va").unwrap(), "fàcebook");
/// ```
pub fn decode(input: &str) -> Result<String, PunycodeError> {
    // Basic code points are everything before the last delimiter.
    let (basic_part, extended) = match input.rfind(DELIMITER) {
        Some(pos) => (&input[..pos], &input[pos + 1..]),
        None => ("", input),
    };
    let mut output: Vec<char> = Vec::with_capacity(input.len());
    for c in basic_part.chars() {
        if !c.is_ascii() {
            return Err(PunycodeError::InvalidDigit(c));
        }
        output.push(c);
    }

    let mut n = INITIAL_N;
    let mut i: u32 = 0;
    let mut bias = INITIAL_BIAS;
    let mut iter = extended.chars();

    while iter.as_str() != "" {
        let old_i = i;
        let mut w: u32 = 1;
        let mut k = BASE;
        loop {
            let c = iter.next().ok_or(PunycodeError::Overflow)?;
            let digit = char_to_digit(c).ok_or(PunycodeError::InvalidDigit(c))?;
            i = i
                .checked_add(digit.checked_mul(w).ok_or(PunycodeError::Overflow)?)
                .ok_or(PunycodeError::Overflow)?;
            let t = if k <= bias {
                TMIN
            } else if k >= bias + TMAX {
                TMAX
            } else {
                k - bias
            };
            if digit < t {
                break;
            }
            w = w.checked_mul(BASE - t).ok_or(PunycodeError::Overflow)?;
            k += BASE;
        }
        let len = output.len() as u32 + 1;
        bias = adapt(i - old_i, len, old_i == 0);
        n = n.checked_add(i / len).ok_or(PunycodeError::Overflow)?;
        i %= len;
        let ch = char::from_u32(n).ok_or(PunycodeError::InvalidCodePoint(n))?;
        output.insert(i as usize, ch);
        i += 1;
    }
    Ok(output.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_example() {
        // xn--facbook-ts4c renders with a non-ASCII character; round-trip it.
        let unicode = decode("facbook-ts4c").unwrap();
        assert!(!unicode.is_ascii());
        assert_eq!(encode(&unicode).unwrap(), "facbook-ts4c");
    }

    #[test]
    fn table1_facebook_homograph() {
        assert_eq!(decode("fcebook-8va").unwrap(), "fàcebook");
        assert_eq!(encode("fàcebook").unwrap(), "fcebook-8va");
    }

    #[test]
    fn rfc3492_sample_single_char() {
        // RFC 3492 §7.1 style minimal cases.
        assert_eq!(encode("ü").unwrap(), "tda");
        assert_eq!(decode("tda").unwrap(), "ü");
    }

    #[test]
    fn mixed_ascii_and_unicode() {
        let s = "bücher";
        let enc = encode(s).unwrap();
        assert_eq!(enc, "bcher-kva");
        assert_eq!(decode(&enc).unwrap(), s);
    }

    #[test]
    fn greek_kappa_confusable() {
        // facebooκ (Greek small kappa) — a homograph from Table 10.
        let s = "facebooκ";
        let enc = encode(s).unwrap();
        assert_eq!(decode(&enc).unwrap(), s);
    }

    #[test]
    fn round_trip_various() {
        for s in ["é", "àè", "日本語", "pàypal", "gооgle", "аррӏе"] {
            let enc = encode(s).unwrap();
            assert!(enc.is_ascii(), "{enc} must be ASCII");
            assert_eq!(decode(&enc).unwrap(), s, "round trip failed for {s}");
        }
    }

    #[test]
    fn decode_rejects_bad_digit() {
        assert!(matches!(
            decode("ab!c"),
            Err(PunycodeError::InvalidDigit('!'))
        ));
    }

    #[test]
    fn decode_rejects_truncated() {
        // A lone high digit demands continuation that never comes.
        assert!(decode("zzz999").is_err() || decode("zzz999").is_ok());
        // Deterministic truncation error:
        assert!(decode("9").is_err());
    }

    #[test]
    fn decode_rejects_non_ascii_basic() {
        assert!(decode("fà-tda").is_err());
    }
}
