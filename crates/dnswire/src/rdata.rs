//! Record types and RDATA payloads.

use crate::name::{decode_name, encode_name, Compressor};
use crate::WireError;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The record types the ActiveDNS-style dataset carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address.
    A,
    /// IPv6 address.
    Aaaa,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Mail exchanger.
    Mx,
    /// Free-form text.
    Txt,
    /// Start of authority.
    Soa,
    /// Anything else (kept as a number so queries round-trip).
    Other(u16),
}

impl RecordType {
    /// Wire value (RFC 1035 §3.2.2).
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            other => RecordType::Other(other),
        }
    }
}

/// Decoded RDATA payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// A record.
    A(Ipv4Addr),
    /// AAAA record.
    Aaaa(Ipv6Addr),
    /// NS record.
    Ns(String),
    /// CNAME record.
    Cname(String),
    /// MX record: preference + exchange host.
    Mx {
        /// Preference (lower wins).
        preference: u16,
        /// Exchange host name.
        exchange: String,
    },
    /// TXT record (single character-string for simplicity).
    Txt(String),
    /// SOA record, trimmed to the fields the dataset uses.
    Soa {
        /// Primary name server.
        mname: String,
        /// Responsible mailbox.
        rname: String,
        /// Zone serial.
        serial: u32,
    },
    /// Raw bytes for unsupported types.
    Raw(Vec<u8>),
}

impl RData {
    /// The record type this payload belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa { .. } => RecordType::Soa,
            RData::Raw(_) => RecordType::Other(0),
        }
    }

    /// Encodes the payload (without the length prefix — the caller patches
    /// RDLENGTH afterwards because compression makes it position-dependent).
    pub(crate) fn encode(&self, buf: &mut Vec<u8>, comp: &mut Compressor) -> Result<(), WireError> {
        match self {
            RData::A(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) => encode_name(n, buf, comp)?,
            RData::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                encode_name(exchange, buf, comp)?;
            }
            RData::Txt(s) => {
                let bytes = s.as_bytes();
                let len = bytes.len().min(255);
                buf.push(len as u8);
                buf.extend_from_slice(&bytes[..len]);
            }
            RData::Soa {
                mname,
                rname,
                serial,
            } => {
                encode_name(mname, buf, comp)?;
                encode_name(rname, buf, comp)?;
                buf.extend_from_slice(&serial.to_be_bytes());
                // refresh / retry / expire / minimum — fixed sane defaults.
                buf.extend_from_slice(&3600u32.to_be_bytes());
                buf.extend_from_slice(&600u32.to_be_bytes());
                buf.extend_from_slice(&86400u32.to_be_bytes());
                buf.extend_from_slice(&60u32.to_be_bytes());
            }
            RData::Raw(bytes) => buf.extend_from_slice(bytes),
        }
        Ok(())
    }

    /// Decodes RDATA of `rtype` occupying `packet[pos..pos+len]`.
    pub(crate) fn decode(
        rtype: RecordType,
        packet: &[u8],
        pos: usize,
        len: usize,
    ) -> Result<RData, WireError> {
        let slice = packet.get(pos..pos + len).ok_or(WireError::Truncated)?;
        Ok(match rtype {
            RecordType::A => {
                let o: [u8; 4] = slice
                    .try_into()
                    .map_err(|_| WireError::BadRdata("A length"))?;
                RData::A(Ipv4Addr::from(o))
            }
            RecordType::Aaaa => {
                let o: [u8; 16] = slice
                    .try_into()
                    .map_err(|_| WireError::BadRdata("AAAA length"))?;
                RData::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Ns => RData::Ns(decode_name(packet, pos)?.0),
            RecordType::Cname => RData::Cname(decode_name(packet, pos)?.0),
            RecordType::Mx => {
                if len < 3 {
                    return Err(WireError::BadRdata("MX length"));
                }
                let preference = u16::from_be_bytes([slice[0], slice[1]]);
                let exchange = decode_name(packet, pos + 2)?.0;
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::Txt => {
                if slice.is_empty() {
                    return Err(WireError::BadRdata("TXT empty"));
                }
                let l = slice[0] as usize;
                let body = slice
                    .get(1..1 + l)
                    .ok_or(WireError::BadRdata("TXT length"))?;
                RData::Txt(String::from_utf8_lossy(body).into_owned())
            }
            RecordType::Soa => {
                let (mname, off) = decode_name(packet, pos)?;
                let (rname, off) = decode_name(packet, off)?;
                let serial_bytes = packet.get(off..off + 4).ok_or(WireError::Truncated)?;
                let serial = u32::from_be_bytes(serial_bytes.try_into().expect("4 bytes"));
                RData::Soa {
                    mname,
                    rname,
                    serial,
                }
            }
            RecordType::Other(_) => RData::Raw(slice.to_vec()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_round_trips() {
        for t in [
            RecordType::A,
            RecordType::Aaaa,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Soa,
            RecordType::Other(999),
        ] {
            assert_eq!(RecordType::from_u16(t.to_u16()), t);
        }
    }

    fn round_trip(rd: &RData) -> RData {
        let mut buf = Vec::new();
        let mut c = Compressor::new();
        rd.encode(&mut buf, &mut c).unwrap();
        RData::decode(rd.record_type(), &buf, 0, buf.len()).unwrap()
    }

    #[test]
    fn a_and_aaaa_round_trip() {
        let a = RData::A(Ipv4Addr::new(93, 184, 216, 34));
        assert_eq!(round_trip(&a), a);
        let aaaa = RData::Aaaa("2606:2800:220:1:248:1893:25c8:1946".parse().unwrap());
        assert_eq!(round_trip(&aaaa), aaaa);
    }

    #[test]
    fn name_bearing_rdata_round_trips() {
        for rd in [
            RData::Ns("ns1.example.com".into()),
            RData::Cname("target.example.org".into()),
            RData::Mx {
                preference: 10,
                exchange: "mx.example.com".into(),
            },
        ] {
            assert_eq!(round_trip(&rd), rd);
        }
    }

    #[test]
    fn txt_round_trips_and_truncates_at_255() {
        let rd = RData::Txt("hello world".into());
        assert_eq!(round_trip(&rd), rd);
        let long = RData::Txt("x".repeat(300));
        match round_trip(&long) {
            RData::Txt(s) => assert_eq!(s.len(), 255),
            other => panic!("expected TXT, got {other:?}"),
        }
    }

    #[test]
    fn soa_round_trips() {
        let rd = RData::Soa {
            mname: "ns1.zone.com".into(),
            rname: "hostmaster.zone.com".into(),
            serial: 20180906,
        };
        assert_eq!(round_trip(&rd), rd);
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert!(RData::decode(RecordType::A, &[1, 2, 3], 0, 3).is_err());
        assert!(RData::decode(RecordType::Mx, &[0], 0, 1).is_err());
        assert!(RData::decode(RecordType::Txt, &[], 0, 0).is_err());
        assert!(RData::decode(RecordType::A, &[1, 2, 3, 4], 2, 4).is_err());
    }
}
