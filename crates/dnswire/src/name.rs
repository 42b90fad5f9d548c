//! Domain-name encoding with RFC 1035 §4.1.4 message compression.

use crate::WireError;
use std::collections::HashMap;

/// Errors specific to wire-format names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label exceeded 63 bytes or the name exceeded 255 bytes.
    TooLong,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// The packet ended inside a name.
    Truncated,
    /// Reserved label-type bits (0b10 / 0b01) were used.
    ReservedLabelType(u8),
}

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NameError::TooLong => write!(f, "name or label too long"),
            NameError::BadPointer => write!(f, "bad compression pointer"),
            NameError::Truncated => write!(f, "name runs past end of packet"),
            NameError::ReservedLabelType(b) => write!(f, "reserved label type bits {b:#04x}"),
        }
    }
}

impl std::error::Error for NameError {}

/// Compression dictionary carried across one message encode: maps a dotted
/// suffix (e.g. `example.com`) to the packet offset where it was first
/// written.
#[derive(Debug, Default)]
pub struct Compressor {
    offsets: HashMap<String, u16>,
}

impl Compressor {
    /// New, empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Encodes `name` (dotted, no trailing dot needed) at the current end of
/// `buf`, using and updating the compression dictionary.
pub fn encode_name(name: &str, buf: &mut Vec<u8>, comp: &mut Compressor) -> Result<(), WireError> {
    let name = name.trim_end_matches('.');
    if name.is_empty() {
        buf.push(0);
        return Ok(());
    }
    if name.len() > 253 {
        return Err(NameError::TooLong.into());
    }
    let mut rest = name;
    loop {
        // Known suffix → emit pointer and stop.
        if let Some(&off) = comp.offsets.get(rest) {
            buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
            return Ok(());
        }
        // Remember this suffix if the offset is representable (14 bits).
        let here = buf.len();
        if here <= 0x3FFF {
            comp.offsets.insert(rest.to_string(), here as u16);
        }
        let (label, tail) = match rest.find('.') {
            Some(p) => (&rest[..p], &rest[p + 1..]),
            None => (rest, ""),
        };
        if label.is_empty() || label.len() > 63 {
            return Err(NameError::TooLong.into());
        }
        buf.push(label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
        if tail.is_empty() {
            buf.push(0);
            return Ok(());
        }
        rest = tail;
    }
}

/// Decodes a name starting at `pos` in `packet`. Returns the dotted name
/// and the offset just past the name *in the original stream* (pointers do
/// not advance the stream past their two bytes).
pub fn decode_name(packet: &[u8], pos: usize) -> Result<(String, usize), WireError> {
    let mut name = String::new();
    let mut i = pos;
    let mut after: Option<usize> = None;
    let mut jumps = 0usize;
    loop {
        let len = *packet.get(i).ok_or(NameError::Truncated)? as usize;
        match len & 0xC0 {
            0x00 => {
                if len == 0 {
                    i += 1;
                    break;
                }
                let label = packet.get(i + 1..i + 1 + len).ok_or(NameError::Truncated)?;
                if !name.is_empty() {
                    name.push('.');
                }
                // Wire labels are arbitrary bytes; we only generate ASCII,
                // so lossy conversion never actually loses data here.
                name.push_str(&String::from_utf8_lossy(label));
                i += 1 + len;
                if name.len() > 253 {
                    return Err(NameError::TooLong.into());
                }
            }
            0xC0 => {
                let b2 = *packet.get(i + 1).ok_or(NameError::Truncated)? as usize;
                let target = ((len & 0x3F) << 8) | b2;
                if after.is_none() {
                    after = Some(i + 2);
                }
                // Pointers must go strictly backwards; cap jumps as a
                // belt-and-braces loop guard.
                if target >= i || jumps > 63 {
                    return Err(NameError::BadPointer.into());
                }
                jumps += 1;
                i = target;
            }
            other => return Err(NameError::ReservedLabelType((other >> 6) as u8).into()),
        }
    }
    Ok((name, after.unwrap_or(i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(name: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut c = Compressor::new();
        encode_name(name, &mut buf, &mut c).unwrap();
        buf
    }

    #[test]
    fn encodes_simple_name() {
        let buf = enc("example.com");
        assert_eq!(&buf[..], b"\x07example\x03com\x00");
    }

    #[test]
    fn round_trips() {
        for n in ["facebook.com", "a.b.c.d.e", "xn--fcebook-8va.com", "x.co"] {
            let buf = enc(n);
            let (dec, off) = decode_name(&buf, 0).unwrap();
            assert_eq!(dec, n);
            assert_eq!(off, buf.len());
        }
    }

    #[test]
    fn root_name_is_single_zero() {
        assert_eq!(&enc("")[..], b"\x00");
        let (dec, off) = decode_name(b"\x00", 0).unwrap();
        assert_eq!(dec, "");
        assert_eq!(off, 1);
    }

    #[test]
    fn compression_reuses_suffix() {
        let mut buf = Vec::new();
        let mut c = Compressor::new();
        encode_name("mail.example.com", &mut buf, &mut c).unwrap();
        let first_len = buf.len();
        encode_name("www.example.com", &mut buf, &mut c).unwrap();
        // Second name should be: 3 "www" + 2-byte pointer = 6 bytes.
        assert_eq!(buf.len() - first_len, 6);
        let (dec, _) = decode_name(&buf, first_len).unwrap();
        assert_eq!(dec, "www.example.com");
        // Full pointer (identical name) is just 2 bytes.
        let before = buf.len();
        encode_name("mail.example.com", &mut buf, &mut c).unwrap();
        assert_eq!(buf.len() - before, 2);
        let (dec, _) = decode_name(&buf, before).unwrap();
        assert_eq!(dec, "mail.example.com");
    }

    #[test]
    fn rejects_oversized_labels() {
        let label = "a".repeat(64);
        let mut buf = Vec::new();
        let mut c = Compressor::new();
        assert!(encode_name(&format!("{label}.com"), &mut buf, &mut c).is_err());
    }

    #[test]
    fn rejects_forward_and_looping_pointers() {
        // Pointer to itself at offset 0.
        assert!(decode_name(b"\xC0\x00", 0).is_err());
        // Forward pointer.
        assert!(decode_name(b"\xC0\x04\x00\x00\x01a\x00", 0).is_err());
        // Two pointers forming a cycle.
        let pkt = b"\xC0\x02\xC0\x00";
        assert!(decode_name(pkt, 2).is_err());
    }

    #[test]
    fn rejects_truncated_names() {
        assert!(decode_name(b"\x05abc", 0).is_err());
        assert!(decode_name(b"", 0).is_err());
        assert!(decode_name(b"\xC0", 0).is_err());
    }

    #[test]
    fn rejects_reserved_label_types() {
        assert!(matches!(
            decode_name(b"\x80abc", 0),
            Err(WireError::Name(NameError::ReservedLabelType(_)))
        ));
    }

    #[test]
    fn decode_returns_offset_after_pointer() {
        // Packet: name at 0 = "a.com"; name at 7 = pointer to 0.
        let mut buf = Vec::new();
        let mut c = Compressor::new();
        encode_name("a.com", &mut buf, &mut c).unwrap();
        let p = buf.len();
        encode_name("a.com", &mut buf, &mut c).unwrap();
        let (dec, off) = decode_name(&buf, p).unwrap();
        assert_eq!(dec, "a.com");
        assert_eq!(off, p + 2);
    }
}
