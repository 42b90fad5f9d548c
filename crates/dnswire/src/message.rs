//! DNS message: header, question and resource-record sections.

use crate::name::{decode_name, encode_name, Compressor};
use crate::rdata::{RData, RecordType};
use crate::WireError;

/// Query/response opcode (we only use QUERY).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Anything else, preserved numerically.
    Other(u8),
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Query refused.
    Refused,
    /// Other code.
    Other(u8),
}

impl Rcode {
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Query (false) or response (true).
    pub response: bool,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Message was truncated.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: u8,
}

/// Message header (12 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction id.
    pub id: u16,
    /// Flag bits.
    pub flags: Flags,
}

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name (dotted).
    pub name: String,
    /// Queried type.
    pub rtype: RecordType,
}

/// A resource record in the answer/authority/additional sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: String,
    /// Time to live.
    pub ttl: u32,
    /// Payload.
    pub rdata: RData,
}

/// A decoded (or to-be-encoded) DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Header.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authority: Vec<ResourceRecord>,
}

impl Message {
    /// Builds a standard A-record query.
    pub fn query(id: u16, name: &str, rtype: RecordType) -> Self {
        Message {
            header: Header {
                id,
                flags: Flags {
                    recursion_desired: true,
                    ..Flags::default()
                },
            },
            questions: vec![Question {
                name: name.to_string(),
                rtype,
            }],
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }

    /// Builds a response skeleton echoing `query`'s id and question.
    pub fn response_to(query: &Message, rcode: Rcode) -> Self {
        Message {
            header: Header {
                id: query.header.id,
                flags: Flags {
                    response: true,
                    authoritative: true,
                    recursion_desired: query.header.flags.recursion_desired,
                    rcode: rcode.to_u8(),
                    ..Flags::default()
                },
            },
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }

    /// The response code as an enum.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_u8(self.header.flags.rcode)
    }

    /// Encodes the message to wire format.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(512);
        let mut comp = Compressor::new();
        let f = &self.header.flags;
        buf.extend_from_slice(&self.header.id.to_be_bytes());
        let mut flags: u16 = 0;
        if f.response {
            flags |= 0x8000;
        }
        if f.authoritative {
            flags |= 0x0400;
        }
        if f.truncated {
            flags |= 0x0200;
        }
        if f.recursion_desired {
            flags |= 0x0100;
        }
        if f.recursion_available {
            flags |= 0x0080;
        }
        flags |= (f.rcode & 0x0F) as u16;
        buf.extend_from_slice(&flags.to_be_bytes());
        buf.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.authority.len() as u16).to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes()); // additional

        for q in &self.questions {
            encode_name(&q.name, &mut buf, &mut comp)?;
            buf.extend_from_slice(&q.rtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for rr in self.answers.iter().chain(self.authority.iter()) {
            encode_name(&rr.name, &mut buf, &mut comp)?;
            buf.extend_from_slice(&rr.rdata.record_type().to_u16().to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
            buf.extend_from_slice(&rr.ttl.to_be_bytes());
            let len_pos = buf.len();
            buf.extend_from_slice(&0u16.to_be_bytes()); // RDLENGTH placeholder
            rr.rdata.encode(&mut buf, &mut comp)?;
            let rdlen = (buf.len() - len_pos - 2) as u16;
            buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
        Ok(buf)
    }

    /// Decodes a message from wire format.
    pub fn decode(packet: &[u8]) -> Result<Self, WireError> {
        if packet.len() < 12 {
            return Err(WireError::Truncated);
        }
        let id = u16::from_be_bytes([packet[0], packet[1]]);
        let flags = u16::from_be_bytes([packet[2], packet[3]]);
        let qd = u16::from_be_bytes([packet[4], packet[5]]) as usize;
        let an = u16::from_be_bytes([packet[6], packet[7]]) as usize;
        let ns = u16::from_be_bytes([packet[8], packet[9]]) as usize;
        // additional count ignored (we never send any)

        let header = Header {
            id,
            flags: Flags {
                response: flags & 0x8000 != 0,
                authoritative: flags & 0x0400 != 0,
                truncated: flags & 0x0200 != 0,
                recursion_desired: flags & 0x0100 != 0,
                recursion_available: flags & 0x0080 != 0,
                rcode: (flags & 0x0F) as u8,
            },
        };

        let mut pos = 12usize;
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let (name, after) = decode_name(packet, pos)?;
            let t = packet.get(after..after + 2).ok_or(WireError::Truncated)?;
            let rtype = RecordType::from_u16(u16::from_be_bytes([t[0], t[1]]));
            pos = after + 4; // type + class
            if pos > packet.len() {
                return Err(WireError::Truncated);
            }
            questions.push(Question { name, rtype });
        }

        let read_section =
            |pos: &mut usize, count: usize| -> Result<Vec<ResourceRecord>, WireError> {
                let mut out = Vec::with_capacity(count);
                for _ in 0..count {
                    let (name, after) = decode_name(packet, *pos)?;
                    let fixed = packet.get(after..after + 10).ok_or(WireError::Truncated)?;
                    let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
                    let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
                    let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
                    let rd_pos = after + 10;
                    let rdata = RData::decode(rtype, packet, rd_pos, rdlen)?;
                    *pos = rd_pos + rdlen;
                    if *pos > packet.len() {
                        return Err(WireError::Truncated);
                    }
                    out.push(ResourceRecord { name, ttl, rdata });
                }
                Ok(out)
            };
        let answers = read_section(&mut pos, an)?;
        let authority = read_section(&mut pos, ns)?;

        Ok(Message {
            header,
            questions,
            answers,
            authority,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn query_round_trips() {
        let q = Message::query(0x1234, "faceb00k.pw", RecordType::A);
        let wire = q.encode().unwrap();
        let dec = Message::decode(&wire).unwrap();
        assert_eq!(dec, q);
        assert!(!dec.header.flags.response);
        assert_eq!(dec.questions[0].name, "faceb00k.pw");
    }

    #[test]
    fn response_round_trips_with_answers() {
        let q = Message::query(7, "goofle.com.ua", RecordType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(ResourceRecord {
            name: "goofle.com.ua".into(),
            ttl: 300,
            rdata: RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        });
        let wire = r.encode().unwrap();
        let dec = Message::decode(&wire).unwrap();
        assert_eq!(dec, r);
        assert!(dec.header.flags.response);
        assert!(dec.header.flags.authoritative);
        assert_eq!(dec.rcode(), Rcode::NoError);
    }

    #[test]
    fn nxdomain_round_trips() {
        let q = Message::query(9, "nonexistent.example.com", RecordType::A);
        let r = Message::response_to(&q, Rcode::NxDomain);
        let dec = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(dec.rcode(), Rcode::NxDomain);
        assert_eq!(dec.questions[0].name, "nonexistent.example.com");
    }

    #[test]
    fn compression_shrinks_answer_names() {
        let q = Message::query(1, "a.very.long.domain.example.com", RecordType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        for i in 0..5 {
            r.answers.push(ResourceRecord {
                name: "a.very.long.domain.example.com".into(),
                ttl: 60,
                rdata: RData::A(Ipv4Addr::new(10, 0, 0, i)),
            });
        }
        let wire = r.encode().unwrap();
        // Without compression each answer name alone is 32 bytes; with
        // pointers each answer costs 2 (ptr) + 10 (fixed) + 4 (A) = 16.
        assert!(
            wire.len() < 12 + 36 + 5 * 20,
            "compression ineffective: {}",
            wire.len()
        );
        assert_eq!(Message::decode(&wire).unwrap(), r);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0u8; 5]).is_err());
        // Claims one question but has none.
        let mut hdr = vec![0u8; 12];
        hdr[5] = 1;
        assert!(Message::decode(&hdr).is_err());
    }

    #[test]
    fn decode_rejects_rdata_overrun() {
        let q = Message::query(2, "x.com", RecordType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(ResourceRecord {
            name: "x.com".into(),
            ttl: 1,
            rdata: RData::A(Ipv4Addr::LOCALHOST),
        });
        let mut wire = r.encode().unwrap();
        // Truncate mid-RDATA.
        wire.truncate(wire.len() - 2);
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn soa_authority_section() {
        let q = Message::query(3, "gone.example.com", RecordType::A);
        let mut r = Message::response_to(&q, Rcode::NxDomain);
        r.authority.push(ResourceRecord {
            name: "example.com".into(),
            ttl: 60,
            rdata: RData::Soa {
                mname: "ns1.example.com".into(),
                rname: "hostmaster.example.com".into(),
                serial: 42,
            },
        });
        let dec = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(dec.authority.len(), 1);
        assert_eq!(dec, r);
    }
}
