//! A small zone-file text format (RFC 1035 §5 master-file subset).
//!
//! The ActiveDNS pipeline persists snapshots; this codec lets `dnsdb`
//! export/import its synthetic zone in the familiar
//! `name TTL IN TYPE rdata` shape so fixtures can live on disk and be
//! diffed by humans.
//!
//! There is one line grammar, [`parse_line`], and one line writer,
//! [`write_record`]. [`parse_zone`] / [`format_zone`] are thin owners over
//! them, and `dnsdb`'s columnar import walks [`for_each_record`] without
//! materialising a [`ResourceRecord`] at all.

use std::fmt::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr};

/// One record's payload, as a zone line's `TYPE rdata` fields carry it.
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
}

/// One zone line: owner name, TTL and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: String,
    /// Time to live.
    pub ttl: u32,
    /// Payload.
    pub rdata: RData,
}

/// Errors produced by [`parse_zone`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// A line did not have the `name ttl IN type rdata` shape.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::BadLine { line, reason } => write!(f, "zone line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ZoneError {}

/// The most bytes [`write_record`] adds to an A record's owner name:
/// `.\t` + a ten-digit TTL + `\tIN\tA\t` + a 15-byte address + `\n`.
pub const A_LINE_MAX_OVERHEAD: usize = 34;

/// Serializes records to zone-file text (SOA is emitted with its serial
/// only — the fixed timers are implementation details).
pub fn format_zone(records: &[ResourceRecord]) -> String {
    // Exact for A records; longer RDATA grows the string.
    let capacity = records
        .iter()
        .map(|rr| rr.name.len() + A_LINE_MAX_OVERHEAD)
        .sum();
    let mut out = String::with_capacity(capacity);
    for rr in records {
        write_record(&mut out, &rr.name, rr.ttl, &rr.rdata);
    }
    out
}

/// Appends one record to `out` as a zone line,
/// `name.\tTTL\tIN\tTYPE\trdata\n`.
pub fn write_record(out: &mut String, name: &str, ttl: u32, rdata: &RData) {
    // Writing to a `String` cannot fail.
    let _ = match rdata {
        // A haystack is all A records: written without the formatting
        // machinery.
        RData::A(ip) => {
            out.push_str(name);
            out.push_str(".\t");
            push_decimal(out, ttl);
            out.push_str("\tIN\tA\t");
            push_ipv4(out, *ip);
            out.push('\n');
            Ok(())
        }
        RData::Aaaa(ip) => writeln!(out, "{name}.\t{ttl}\tIN\tAAAA\t{ip}"),
        RData::Ns(host) => writeln!(out, "{name}.\t{ttl}\tIN\tNS\t{host}."),
        RData::Cname(host) => writeln!(out, "{name}.\t{ttl}\tIN\tCNAME\t{host}."),
        RData::Mx {
            preference,
            exchange,
        } => writeln!(out, "{name}.\t{ttl}\tIN\tMX\t{preference} {exchange}."),
        // A quote inside the string would end it early; quotes are dropped.
        RData::Txt(text) => {
            let _ = write!(out, "{name}.\t{ttl}\tIN\tTXT\t\"");
            text.split('"').for_each(|part| out.push_str(part));
            writeln!(out, "\"")
        }
        RData::Soa {
            mname,
            rname,
            serial,
        } => writeln!(out, "{name}.\t{ttl}\tIN\tSOA\t{mname}. {rname}. {serial}"),
    };
}

/// `ip`'s dotted-quad text, as `Ipv4Addr`'s `Display` writes it.
fn push_ipv4(out: &mut String, ip: Ipv4Addr) {
    let [a, b, c, d] = ip.octets();
    push_decimal(out, a.into());
    for octet in [b, c, d] {
        out.push('.');
        push_decimal(out, octet.into());
    }
}

fn push_decimal(out: &mut String, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Parses zone-file text produced by [`format_zone`] (plus `;` comments
/// and blank lines).
pub fn parse_zone(text: &str) -> Result<Vec<ResourceRecord>, ZoneError> {
    let mut out = Vec::new();
    for_each_record(text, |name, ttl, rdata| {
        out.push(ResourceRecord {
            name: name.to_string(),
            ttl,
            rdata,
        })
    })?;
    Ok(out)
}

/// Hands every record of `text` to `f` in text order, with its owner name
/// borrowed from `text`, and returns the number of lines `text` holds.
/// Stops at the first malformed line; its error carries the line number
/// counted from the start of `text`.
pub fn for_each_record<'a>(
    text: &'a str,
    mut f: impl FnMut(&'a str, u32, RData),
) -> Result<usize, ZoneError> {
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        match parse_line(line) {
            Ok(Some((name, ttl, rdata))) => f(name, ttl, rdata),
            Ok(None) => {}
            Err(reason) => {
                return Err(ZoneError::BadLine {
                    line: lines,
                    reason,
                })
            }
        }
    }
    Ok(lines)
}

/// Parses one zone line: `Ok(None)` for a blank or comment-only line,
/// otherwise the owner name (borrowed, trailing dots trimmed), the TTL and
/// the RDATA. `;` starts a comment outside double quotes; fields are split
/// on Unicode whitespace; type and class match case-insensitively. An A
/// record allocates nothing.
pub fn parse_line(line: &str) -> Result<Option<(&str, u32, RData)>, &'static str> {
    let content = uncommented(line);
    let mut fields = content.split_whitespace();
    let Some(name) = fields.next() else {
        return Ok(None);
    };
    let (Some(ttl), Some(class), Some(ty), Some(first)) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err("expected 5+ fields");
    };
    let ttl: u32 = ttl.parse().map_err(|_| "bad TTL")?;
    if !class.eq_ignore_ascii_case("IN") {
        return Err("only class IN supported");
    }
    let host = |field: &str| field.trim_end_matches('.').to_string();
    let is = |want: &str| ty.eq_ignore_ascii_case(want);
    let rdata = if is("A") {
        RData::A(first.parse().map_err(|_| "bad A address")?)
    } else if is("AAAA") {
        RData::Aaaa(first.parse().map_err(|_| "bad AAAA address")?)
    } else if is("NS") {
        RData::Ns(host(first))
    } else if is("CNAME") {
        RData::Cname(host(first))
    } else if is("MX") {
        let Some(exchange) = fields.next() else {
            return Err("MX needs pref + host");
        };
        RData::Mx {
            preference: first.parse().map_err(|_| "bad MX preference")?,
            exchange: host(exchange),
        }
    } else if is("TXT") {
        let body = content
            .split_once('"')
            .and_then(|(_, rest)| rest.rsplit_once('"'))
            .ok_or("TXT needs quotes")?
            .0;
        RData::Txt(body.to_string())
    } else if is("SOA") {
        let (Some(rname), Some(serial)) = (fields.next(), fields.next()) else {
            return Err("SOA needs mname rname serial");
        };
        RData::Soa {
            mname: host(first),
            rname: host(rname),
            serial: serial.parse().map_err(|_| "bad SOA serial")?,
        }
    } else {
        return Err("unsupported record type");
    };
    Ok(Some((name.trim_end_matches('.'), ttl, rdata)))
}

/// `line` up to its first `;` outside double quotes.
fn uncommented(line: &str) -> &str {
    // Most lines hold no `;`: one memchr says so without the quote walk.
    if !line.as_bytes().contains(&b';') {
        return line;
    }
    let mut quoted = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => quoted = !quoted,
            b';' if !quoted => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ResourceRecord> {
        vec![
            ResourceRecord {
                name: "faceb00k.pw".into(),
                ttl: 300,
                rdata: RData::A(Ipv4Addr::new(203, 0, 113, 9)),
            },
            ResourceRecord {
                name: "goofle.com.ua".into(),
                ttl: 60,
                rdata: RData::Cname("lander.ads.example".into()),
            },
            ResourceRecord {
                name: "paypal-cash.com".into(),
                ttl: 3600,
                rdata: RData::Mx {
                    preference: 10,
                    exchange: "mx.paypal-cash.com".into(),
                },
            },
            ResourceRecord {
                name: "zone.example".into(),
                ttl: 86400,
                rdata: RData::Soa {
                    mname: "ns1.zone.example".into(),
                    rname: "hostmaster.zone.example".into(),
                    serial: 20180906,
                },
            },
            ResourceRecord {
                name: "note.example".into(),
                ttl: 30,
                rdata: RData::Txt("squatting phishing fixture".into()),
            },
        ]
    }

    #[test]
    fn round_trips() {
        let records = sample();
        let text = format_zone(&records);
        let parsed = parse_zone(&text).expect("parse what we formatted");
        assert_eq!(parsed, records);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "; a comment\n\nfaceb00k.pw.\t300\tIN\tA\t203.0.113.9 ; trailing\n";
        let parsed = parse_zone(text).expect("valid");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "faceb00k.pw");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_zone("good.example.\t60\tIN\tA\t1.2.3.4\nbad line here\n").unwrap_err();
        assert_eq!(
            err,
            ZoneError::BadLine {
                line: 2,
                reason: "expected 5+ fields"
            }
        );
        let err = parse_zone("x.example.\tNaN\tIN\tA\t1.2.3.4\n").unwrap_err();
        assert!(matches!(err, ZoneError::BadLine { line: 1, .. }));
    }

    #[test]
    fn rejects_unknown_types_and_classes() {
        assert!(parse_zone("x.example.\t60\tCH\tA\t1.2.3.4\n").is_err());
        assert!(parse_zone("x.example.\t60\tIN\tSRV\t1 2 3 t.example.\n").is_err());
    }

    #[test]
    fn semicolon_inside_a_quoted_txt_string_is_not_a_comment() {
        // `parse_zone` used to cut this line at the `;` and reject its own
        // output with "TXT needs quotes".
        let records = vec![ResourceRecord {
            name: "note.example".into(),
            ttl: 30,
            rdata: RData::Txt("v=spf1; -all".into()),
        }];
        let text = format_zone(&records);
        assert_eq!(text, "note.example.\t30\tIN\tTXT\t\"v=spf1; -all\"\n");
        assert_eq!(parse_zone(&text), Ok(records));
        // A `;` after the closing quote still starts a comment.
        let (_, _, rdata) = parse_line("n.example. 1 IN TXT \"a;b\" ; it's \"c\"")
            .expect("valid")
            .expect("a record");
        assert_eq!(rdata, RData::Txt("a;b".into()));
    }

    #[test]
    fn writer_matches_display_formatting() {
        let mut out = String::new();
        for (ttl, ip) in [
            (0, Ipv4Addr::new(0, 0, 0, 0)),
            (u32::MAX, Ipv4Addr::new(255, 255, 255, 255)),
            (300, Ipv4Addr::new(10, 0, 100, 9)),
        ] {
            out.clear();
            write_record(&mut out, "x.example", ttl, &RData::A(ip));
            assert_eq!(out, format!("x.example.\t{ttl}\tIN\tA\t{ip}\n"));
            assert!(out.len() <= "x.example".len() + A_LINE_MAX_OVERHEAD);
        }
        // Every other type, byte for byte as the pre-PR-25 `format!` wrote it.
        let mut records = sample();
        records.push(ResourceRecord {
            name: "v6.example".into(),
            ttl: 7,
            rdata: RData::Aaaa("2001:db8::1".parse().expect("valid")),
        });
        records.push(ResourceRecord {
            name: "ns.example".into(),
            ttl: 7,
            rdata: RData::Ns("ns1.example".into()),
        });
        records.push(ResourceRecord {
            name: "q.example".into(),
            ttl: 7,
            rdata: RData::Txt("say \"hi\"; bye".into()),
        });
        for rr in &records {
            let rdata = match &rr.rdata {
                RData::A(ip) => format!("A\t{ip}"),
                RData::Aaaa(ip) => format!("AAAA\t{ip}"),
                RData::Cname(n) => format!("CNAME\t{n}."),
                RData::Mx {
                    preference,
                    exchange,
                } => format!("MX\t{preference} {exchange}."),
                RData::Txt(t) => format!("TXT\t\"{}\"", t.replace('"', "")),
                RData::Soa {
                    mname,
                    rname,
                    serial,
                } => format!("SOA\t{mname}. {rname}. {serial}"),
                RData::Ns(n) => format!("NS\t{n}."),
            };
            out.clear();
            write_record(&mut out, &rr.name, rr.ttl, &rr.rdata);
            assert_eq!(out, format!("{}.\t{}\tIN\t{rdata}\n", rr.name, rr.ttl));
        }
    }

    #[test]
    fn a_line_borrows_its_owner_name() {
        let line = "faceb00k.pw..\t300\tin\ta\t203.0.113.9";
        let (name, ttl, rdata) = parse_line(line).expect("valid").expect("a record");
        assert_eq!((name, ttl), ("faceb00k.pw", 300));
        assert_eq!(rdata, RData::A(Ipv4Addr::new(203, 0, 113, 9)));
        assert!(std::ptr::eq(name.as_ptr(), line.as_ptr()));
        assert_eq!(parse_line(" \t; only a comment"), Ok(None));
    }
}
