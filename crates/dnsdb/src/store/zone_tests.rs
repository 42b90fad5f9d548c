//! `RecordStore::from_zone` against the pre-PR-25 import, kept verbatim
//! below as the oracle: `parse_zone` → `Vec<ResourceRecord>` → one push
//! per A record. The chunked, parallel, columnar import must build the
//! same store and report the same `ZoneError` for every input, at every
//! grain and worker count. The one intended difference — a `;` inside a
//! quoted TXT string is no longer a comment — is asserted explicitly. The
//! properties run on the workspace harness `squatphi_prop`.

use super::{line_cuts, RecordStore, ZONE_GRAIN};
use crate::synth::{generate, SnapshotConfig};
use squatphi_dnswire::zone::{parse_zone, ZoneError};
use squatphi_dnswire::{RData, ResourceRecord};
use squatphi_prop::{check, prop_assert_eq, Gen};
use squatphi_squat::BrandRegistry;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The pre-PR-25 `dnswire::zone::parse_zone`, verbatim.
fn oracle_parse_zone(text: &str) -> Result<Vec<ResourceRecord>, ZoneError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.split(';').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        if fields.len() < 5 {
            return Err(ZoneError::BadLine {
                line,
                reason: "expected 5+ fields",
            });
        }
        let name = fields[0].trim_end_matches('.').to_string();
        let ttl: u32 = fields[1].parse().map_err(|_| ZoneError::BadLine {
            line,
            reason: "bad TTL",
        })?;
        if !fields[2].eq_ignore_ascii_case("IN") {
            return Err(ZoneError::BadLine {
                line,
                reason: "only class IN supported",
            });
        }
        let rdata = match fields[3].to_ascii_uppercase().as_str() {
            "A" => RData::A(
                fields[4]
                    .parse::<Ipv4Addr>()
                    .map_err(|_| ZoneError::BadLine {
                        line,
                        reason: "bad A address",
                    })?,
            ),
            "AAAA" => {
                RData::Aaaa(
                    fields[4]
                        .parse::<Ipv6Addr>()
                        .map_err(|_| ZoneError::BadLine {
                            line,
                            reason: "bad AAAA address",
                        })?,
                )
            }
            "NS" => RData::Ns(fields[4].trim_end_matches('.').to_string()),
            "CNAME" => RData::Cname(fields[4].trim_end_matches('.').to_string()),
            "MX" => {
                if fields.len() < 6 {
                    return Err(ZoneError::BadLine {
                        line,
                        reason: "MX needs pref + host",
                    });
                }
                RData::Mx {
                    preference: fields[4].parse().map_err(|_| ZoneError::BadLine {
                        line,
                        reason: "bad MX preference",
                    })?,
                    exchange: fields[5].trim_end_matches('.').to_string(),
                }
            }
            "TXT" => RData::Txt(
                content
                    .split_once('"')
                    .and_then(|(_, rest)| rest.rsplit_once('"'))
                    .map(|(body, _)| body.to_string())
                    .ok_or(ZoneError::BadLine {
                        line,
                        reason: "TXT needs quotes",
                    })?,
            ),
            "SOA" => {
                if fields.len() < 7 {
                    return Err(ZoneError::BadLine {
                        line,
                        reason: "SOA needs mname rname serial",
                    });
                }
                RData::Soa {
                    mname: fields[4].trim_end_matches('.').to_string(),
                    rname: fields[5].trim_end_matches('.').to_string(),
                    serial: fields[6].parse().map_err(|_| ZoneError::BadLine {
                        line,
                        reason: "bad SOA serial",
                    })?,
                }
            }
            _ => {
                return Err(ZoneError::BadLine {
                    line,
                    reason: "unsupported record type",
                })
            }
        };
        out.push(ResourceRecord { name, ttl, rdata });
    }
    Ok(out)
}

/// The pre-PR-25 `RecordStore::from_zone`: the oracle's A records, pushed
/// one by one.
fn oracle_from_zone(text: &str) -> Result<RecordStore, ZoneError> {
    let mut store = RecordStore::new();
    for rr in oracle_parse_zone(text)? {
        if let RData::A(ip) = rr.rdata {
            store.push(&rr.name, ip);
        }
    }
    Ok(store)
}

/// Imports `text` at every grain × worker count and checks each against
/// the oracle. Stores are compared record by record so a failure names
/// the first record that differs rather than dumping two stores.
fn assert_imports_like_the_oracle(text: &str, grains: &[usize]) {
    let want = oracle_from_zone(text);
    for &grain in grains {
        for workers in [1, 2, 8] {
            let got = RecordStore::import(text, grain, workers);
            let at = format!("grain {grain}, {workers} workers");
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.len(), want.len(), "{at}");
                    if let Some(i) = (0..got.len()).find(|&i| got.get(i) != want.get(i)) {
                        panic!("{at}: record {i}: {:?} != {:?}", got.get(i), want.get(i));
                    }
                    assert_eq!(got, want, "{at}: columns differ");
                }
                _ => assert_eq!(got, want, "{at}"),
            }
        }
    }
}

#[test]
fn zone_import_matches_the_oracle_on_synth_stores() {
    let registry = BrandRegistry::with_size(20);
    let mut crossed_a_real_cut = false;
    for (benign, squatting) in [(0, 0), (1, 0), (300, 20), (2_000, 600), (30_000, 400)] {
        let (store, _) = generate(
            &SnapshotConfig {
                benign_records: benign,
                squatting_records: squatting,
                subdomain_fraction: 0.25,
                seed: benign as u64,
            },
            &registry,
        );
        let text = store.to_zone();
        // The large store spans two real chunks; cutting every line of it
        // on a one-byte grain would only repeat the smaller cases slower.
        crossed_a_real_cut |= text.len() > ZONE_GRAIN;
        let grains: &[usize] = if text.len() > ZONE_GRAIN {
            &[ZONE_GRAIN, 4096]
        } else {
            &[ZONE_GRAIN, 4096, 1]
        };
        assert_imports_like_the_oracle(&text, grains);
        assert_eq!(RecordStore::from_zone(&text).as_ref(), Ok(&store));
    }
    assert!(
        crossed_a_real_cut,
        "no store spans two {ZONE_GRAIN}-byte chunks"
    );
}

#[test]
fn zone_cuts_fall_just_after_newlines() {
    let text = "a. 1 IN A 1.1.1.1\nbb. 1 IN A 2.2.2.2\r\n\nlast. 1 IN A 3.3.3.3";
    let newlines: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
    // A one-byte grain cuts after every line; no trailing newline means
    // the last chunk ends at the end of the text.
    let mut every_line = vec![0];
    every_line.extend(&newlines);
    every_line.push(text.len());
    assert_eq!(line_cuts(text, 1), every_line);
    assert_eq!(line_cuts(text, 19), [0, newlines[1], text.len()]);
    assert_eq!(line_cuts(text, text.len()), [0, text.len()]);
    assert_eq!(line_cuts("", 1), [0]);
    for grain in 1..=text.len() + 1 {
        let cuts = line_cuts(text, grain);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "grain {grain}");
        assert!(cuts[1..cuts.len() - 1]
            .iter()
            .all(|&c| text.as_bytes()[c - 1] == b'\n'));
    }
}

/// Lines of every shape the grammar accepts, with CRLF endings, comments,
/// blanks, Unicode whitespace (U+00A0, U+2003, U+3000, U+0085, VT, FF)
/// between fields and no trailing newline.
const MESSY: &str = "; header comment \"with a quote\n\
    \n\
    a.example.\t300\tIN\tA\t203.0.113.1\r\n\
    B.Example.  60  in  a  203.0.113.2 ; trailing comment\n\
    \u{a0}c.example.\u{2003}60\u{3000}IN\u{85}A\u{b}203.0.113.3\u{c}\n\
    alias.example.\t300\tIN\tCNAME\ta.example.\r\n\
    mx.example.\t300\tIN\tMX\t10 mail.example.\n\
    ns.example.\t300\tIN\tNS\tns1.example.\n\
    v6.example.\t300\tIN\tAAAA\t2001:db8::1\n\
    zone.example.\t86400\tIN\tSOA\tns1.zone.example. host.zone.example. 2018\n\
    note.example.\t30\tIN\tTXT\t\"squatting fixture\" ; after\n\
    \t \r\n\
    ;;\n\
    d.example..\t0\tIN\tA\t198.51.100.4 extra fields ignored\n\
    e.example.\t4294967295\tIN\tA\t198.51.100.5";

#[test]
fn zone_import_matches_the_oracle_on_messy_inputs() {
    let grains = [1, 2, 7, 64, 200, ZONE_GRAIN];
    assert_imports_like_the_oracle(MESSY, &grains);
    assert_imports_like_the_oracle(&format!("{MESSY}\n"), &grains);
    assert_imports_like_the_oracle(&MESSY.replace('\n', "\r\n"), &grains);
    let store = RecordStore::from_zone(MESSY).expect("valid");
    let names: Vec<&str> = store.iter().map(|(name, _)| name).collect();
    assert_eq!(
        names,
        [
            "a.example",
            "B.Example",
            "c.example",
            "d.example",
            "e.example"
        ]
    );
    // The shared grammar gives parse_zone the oracle's records too.
    assert_eq!(parse_zone(MESSY), oracle_parse_zone(MESSY));
}

/// One malformed line per reason the grammar reports.
const MALFORMED: [(&str, &str); 12] = [
    ("bad line here", "expected 5+ fields"),
    ("x.example.\tNaN\tIN\tA\t1.2.3.4", "bad TTL"),
    ("x.example.\t-1\tIN\tA\t1.2.3.4", "bad TTL"),
    ("x.example.\t60\tCH\tA\t1.2.3.4", "only class IN supported"),
    ("x.example.\t60\tIN\tA\t1.2.3.256", "bad A address"),
    ("x.example.\t60\tIN\tAAAA\t1.2.3.4", "bad AAAA address"),
    ("x.example.\t60\tIN\tMX\t10", "MX needs pref + host"),
    (
        "x.example.\t60\tIN\tMX\tten mx.example.",
        "bad MX preference",
    ),
    ("x.example.\t60\tIN\tTXT\tno-quotes", "TXT needs quotes"),
    (
        "x.example.\t60\tIN\tSOA\tns. host.",
        "SOA needs mname rname serial",
    ),
    ("x.example.\t60\tIN\tSOA\tns. host. x", "bad SOA serial"),
    (
        "x.example.\t60\tIN\tSRV\t1 2 3 t.example.",
        "unsupported record type",
    ),
];

fn valid_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "host-{i}.example.\t300\tIN\tA\t10.0.{}.{}",
                i / 256,
                i % 256
            )
        })
        .collect()
}

#[test]
fn zone_errors_match_the_oracle_first_last_and_across_cuts() {
    for (bad, reason) in MALFORMED {
        for at in [0, 20, 39] {
            let mut lines = valid_lines(40);
            lines[at] = bad.to_string();
            let text = lines.join("\n");
            let want = Err(ZoneError::BadLine {
                line: at + 1,
                reason,
            });
            assert_eq!(oracle_from_zone(&text), want, "{bad:?}");
            // Grains from one byte to three lines move the cuts across the
            // malformed line and its neighbours.
            let grains: Vec<usize> = (1..=3 * lines[1].len()).collect();
            assert_imports_like_the_oracle(&text, &grains);
            assert_imports_like_the_oracle(&(text + "\n"), &[1, 37, ZONE_GRAIN]);
        }
    }
}

#[test]
fn zone_error_from_the_earliest_chunk_wins() {
    // Two malformed lines with different reasons in different chunks: the
    // earlier one is reported, wherever the later one's chunk finished.
    let mut lines = valid_lines(3_000);
    lines[1_000] = MALFORMED[4].0.to_string();
    lines[2_500] = MALFORMED[0].0.to_string();
    let text = lines.join("\n");
    let want = Err(ZoneError::BadLine {
        line: 1_001,
        reason: "bad A address",
    });
    for grain in [1, 100, 4096, 30_000] {
        for workers in [1, 2, 8] {
            assert_eq!(RecordStore::import(&text, grain, workers), want);
        }
    }
}

/// Renders one line of kind `kind`: 0-1 A records, 2-4 other types, 5 a
/// TXT record with a `;` inside its quotes, 6 a comment, 7 a blank line,
/// 8 a malformed line, anything above a plain A record; `r` picks the
/// names, numbers and spacing. Returns the line and whether it is kind 5.
fn mixed_line(kind: u8, r: u32) -> (String, bool) {
    let [a, b, c, d] = r.to_le_bytes();
    let space = ["\t", " ", "  ", "\u{a0}", "\u{3000}", "\t \u{2003}"][r as usize % 6];
    let name = format!("h{}.ex{}.com.", r % 997, r % 13);
    let field = |parts: &[&str]| parts.join(space);
    let line = match kind {
        0 => field(&[
            &name,
            &(r % 100_000).to_string(),
            "IN",
            "A",
            &format!("{a}.{b}.{c}.{d}"),
        ]),
        1 => field(&[
            &name,
            "60",
            "in",
            "a",
            &format!("{a}.{b}.{c}.{d}"),
            "; note",
        ]),
        2 => field(&[&name, "60", "IN", "CNAME", "target.example."]),
        3 => match r % 4 {
            0 => field(&[
                &name,
                "60",
                "IN",
                "MX",
                &(r % 50).to_string(),
                "mx.example.",
            ]),
            1 => field(&[&name, "60", "IN", "NS", "ns1.example."]),
            2 => field(&[
                &name,
                "60",
                "IN",
                "AAAA",
                &format!("2001:db8::{:x}", r % 65_536),
            ]),
            _ => field(&[&name, "60", "IN", "SOA", "ns.", "host.", &r.to_string()]),
        },
        4 => field(&[
            &name,
            "60",
            "IN",
            "TXT",
            &format!("\"v=spf{} -all\"", r % 9),
        ]),
        5 => return (field(&[&name, "60", "IN", "TXT", "\"v=spf1; -all\""]), true),
        6 => ["; comment", ";\"quoted; comment", ""][r as usize % 3].to_string(),
        7 => [" ", "\t\t", "\u{a0}"][r as usize % 3].to_string(),
        8 => MALFORMED[r as usize % MALFORMED.len()].0.to_string(),
        _ => return mixed_line(0, r),
    };
    (line, false)
}

#[test]
fn zone_import_matches_the_oracle_on_random_line_mixes() {
    let gen = |g: &mut Gen| {
        (
            g.vec(0..60, |g| (g.below(24) as u8, g.u32())),
            g.range(1..300) as usize,
            g.range(1..9) as usize,
            g.below(2) as u8,
            g.below(2) as u8,
        )
    };
    check(
        "zone_import_matches_the_oracle_on_random_line_mixes",
        256,
        gen,
        |(kinds, grain, workers, crlf, trailing_newline)| {
            // The oracle reads the same text with each quoted `;` of a kind-5
            // line replaced by `,`: line for line the same input, minus the
            // one case the fix changes.
            let (mut text, mut fixed) = (String::new(), String::new());
            let mut first_quoted_semicolon = None;
            for (i, &(kind, r)) in kinds.iter().enumerate() {
                let (line, quoted_semicolon) = mixed_line(kind, r);
                if i > 0 {
                    let end = if crlf == 1 { "\r\n" } else { "\n" };
                    text.push_str(end);
                    fixed.push_str(end);
                }
                if quoted_semicolon {
                    first_quoted_semicolon.get_or_insert(i + 1);
                    fixed.push_str(&line.replace(';', ","));
                } else {
                    fixed.push_str(&line);
                }
                text.push_str(&line);
            }
            if trailing_newline == 1 {
                text.push('\n');
                fixed.push('\n');
            }

            prop_assert_eq!(
                RecordStore::import(&text, grain, workers),
                oracle_from_zone(&fixed)
            );
            let unfix = |rrs: Vec<ResourceRecord>| -> Vec<ResourceRecord> {
                rrs.into_iter()
                    .map(|mut rr| {
                        if let RData::Txt(body) = &mut rr.rdata {
                            *body = body.replace(';', ",");
                        }
                        rr
                    })
                    .collect()
            };
            prop_assert_eq!(parse_zone(&text).map(unfix), oracle_parse_zone(&fixed));

            // The difference, explicitly: the oracle fails the unfixed text at
            // its first quoted `;` unless an earlier line already failed.
            let want = match (oracle_parse_zone(&fixed), first_quoted_semicolon) {
                (Err(ZoneError::BadLine { line, reason }), Some(q)) if line < q => {
                    Err(ZoneError::BadLine { line, reason })
                }
                (_, Some(q)) => Err(ZoneError::BadLine {
                    line: q,
                    reason: "TXT needs quotes",
                }),
                (fixed, None) => fixed,
            };
            prop_assert_eq!(oracle_parse_zone(&text), want);
            Ok(())
        },
    );
}

#[test]
fn zone_import_never_panics() {
    let gen = |g: &mut Gen| {
        (
            g.vec(0..12, |g| (g.text(0..=40), g.below(5) as u8)),
            g.range(1..64) as usize,
            g.range(1..5) as usize,
        )
    };
    check(
        "zone_import_never_panics",
        256,
        gen,
        |(pieces, grain, workers)| {
            let mut text = String::new();
            for (piece, sep) in &pieces {
                text.push_str(piece);
                text.push_str(["\n", "\r\n", ";", "\"", "\t"][*sep as usize]);
            }
            let _ = RecordStore::import(&text, grain, workers);
            let _ = RecordStore::from_zone(&text);
            Ok(())
        },
    );
}
