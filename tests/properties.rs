//! Property-based tests over the core substrates, on the workspace
//! harness (`squatphi_prop`): each property draws its inputs from a
//! stream seeded by its name, and a failing input is shrunk before it is
//! reported.

use squatphi_domain::{distance, idna, punycode, DomainName};
use squatphi_html::{parse, tokenize};
use squatphi_imghash::{average_hash, difference_hash, perceptual_hash};
use squatphi_nlp::SparseVec;
use squatphi_ocr::{recognize, OcrConfig};
use squatphi_prop::{check, prop_assert, prop_assert_eq, Gen};
use squatphi_render::{render_page, Bitmap, RenderOptions};

/// `(index, value)` pairs for a sparse vector over 32 dims.
fn sparse_entries(g: &mut Gen) -> Vec<(usize, f64)> {
    g.vec(0..10, |g| (g.below(32) as usize, g.f64(0.0..8.0)))
}

fn sparse(entries: &[(usize, f64)]) -> SparseVec {
    let mut v = SparseVec::new();
    for (i, x) in entries {
        v.add(*i, *x);
    }
    v
}

// ---- punycode / IDNA -------------------------------------------------

#[test]
fn punycode_round_trips_unicode_labels() {
    let gen = |g: &mut Gen| g.text(1..=24);
    check("punycode_round_trips_unicode_labels", 256, gen, |s| {
        if let Ok(encoded) = punycode::encode(&s) {
            prop_assert!(encoded.is_ascii());
            if !s.is_ascii() {
                let decoded = punycode::decode(&encoded).expect("decode what we encoded");
                prop_assert_eq!(decoded, s);
            }
        }
        Ok(())
    });
}

#[test]
fn punycode_decode_never_panics() {
    let gen = |g: &mut Gen| g.string("a-z0-9-", 0..=32);
    check("punycode_decode_never_panics", 256, gen, |s| {
        let _ = punycode::decode(&s);
        Ok(())
    });
}

#[test]
fn idna_round_trips_lowercase_labels() {
    let gen = |g: &mut Gen| g.string("a-zàéöκогž", 1..=16);
    check("idna_round_trips_lowercase_labels", 256, gen, |s| {
        let domain = format!("{s}.com");
        if let Ok(ascii) = idna::to_ascii(&domain) {
            prop_assert!(ascii.is_ascii());
            prop_assert_eq!(idna::to_unicode(&ascii), domain);
        }
        Ok(())
    });
}

// ---- distances --------------------------------------------------------

#[test]
fn levenshtein_is_a_metric() {
    let gen = |g: &mut Gen| {
        (
            g.string("a-z", 0..=12),
            g.string("a-z", 0..=12),
            g.string("a-z", 0..=12),
        )
    };
    check("levenshtein_is_a_metric", 256, gen, |(a, b, c)| {
        let ab = distance::levenshtein(&a, &b);
        let ba = distance::levenshtein(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(distance::levenshtein(&a, &a), 0);
        let ac = distance::levenshtein(&a, &c);
        let bc = distance::levenshtein(&b, &c);
        prop_assert!(ac <= ab + bc, "triangle inequality violated");
        Ok(())
    });
}

#[test]
fn damerau_never_exceeds_levenshtein() {
    let gen = |g: &mut Gen| (g.string("a-z", 0..=10), g.string("a-z", 0..=10));
    check("damerau_never_exceeds_levenshtein", 256, gen, |(a, b)| {
        prop_assert!(distance::damerau_levenshtein(&a, &b) <= distance::levenshtein(&a, &b));
        Ok(())
    });
}

#[test]
fn bit_flip_distance_is_symmetric() {
    let gen = |g: &mut Gen| (g.string("a-z", 0..=12), g.string("a-z", 0..=12));
    check("bit_flip_distance_is_symmetric", 256, gen, |(a, b)| {
        prop_assert_eq!(
            distance::bit_flip_distance(&a, &b),
            distance::bit_flip_distance(&b, &a)
        );
        // Self-distance on ASCII input is always "zero flips".
        prop_assert_eq!(distance::bit_flip_distance(&a, &a), Some(0));
        Ok(())
    });
}

// ---- domain names -----------------------------------------------------

#[test]
fn domain_parse_never_panics() {
    let gen = |g: &mut Gen| g.text(0..=64);
    check("domain_parse_never_panics", 256, gen, |s| {
        let _ = DomainName::parse(&s);
        Ok(())
    });
}

#[test]
fn parsed_domains_are_idempotent() {
    let gen = |g: &mut Gen| {
        (
            format!("{}{}", g.char("a-z"), g.string("a-z0-9", 0..=20)),
            g.pick(&["com", "net", "org", "tk", "audi", "com.ua"]),
        )
    };
    check("parsed_domains_are_idempotent", 256, gen, |(label, tld)| {
        let d = DomainName::parse(&format!("{label}.{tld}")).expect("valid input");
        let d2 = DomainName::parse(d.as_str()).expect("reparse");
        prop_assert_eq!(d, d2);
        Ok(())
    });
}

#[test]
fn domain_display_round_trips() {
    let gen = |g: &mut Gen| {
        let sub = g.vec(0..3, |g| {
            g.below(1); // the draw of a one-way regex group
            format!("{}{}.", g.char("a-z"), g.string("a-z0-9", 0..=8))
        });
        (
            sub.concat(),
            format!(
                "{}{}{}",
                g.char("a-z"),
                g.string("a-z0-9-", 0..=14),
                g.char("a-z0-9")
            ),
            g.pick(&["com", "net", "org", "pw", "top", "com.ua"]),
        )
    };
    check(
        "domain_display_round_trips",
        256,
        gen,
        |(sub, label, tld)| {
            // parse → Display → parse is the identity for every valid name,
            // including subdomain chains and multi-label public suffixes.
            if let Ok(d) = DomainName::parse(&format!("{sub}{label}.{tld}")) {
                let shown = d.to_string();
                let reparsed = DomainName::parse(&shown).expect("display output reparses");
                prop_assert_eq!(&reparsed, &d);
                prop_assert_eq!(shown, d.as_str());
            }
            Ok(())
        },
    );
}

// ---- HTML ---------------------------------------------------------------

#[test]
fn html_tokenizer_never_panics() {
    let gen = |g: &mut Gen| g.text(0..=300);
    check("html_tokenizer_never_panics", 256, gen, |s| {
        let _ = tokenize(&s);
        let _ = parse(&s);
        Ok(())
    });
}

#[test]
fn html_serialize_reparse_preserves_text() {
    let gen = |g: &mut Gen| g.vec(1..6, |g| g.string("a-z", 1..=8));
    check("html_serialize_reparse_preserves_text", 256, gen, |words| {
        let text = words.join(" ");
        let html = format!("<body><p>{text}</p></body>");
        let doc = parse(&html);
        let round = parse(&doc.serialize(squatphi_html::Document::ROOT));
        prop_assert_eq!(
            round.subtree_text(squatphi_html::Document::ROOT),
            doc.subtree_text(squatphi_html::Document::ROOT)
        );
        Ok(())
    });
}

// ---- image hashing -------------------------------------------------------

#[test]
fn image_hashes_are_deterministic_and_self_zero() {
    let gen = |g: &mut Gen| g.u8();
    check(
        "image_hashes_are_deterministic_and_self_zero",
        256,
        gen,
        |seed| {
            let mut bmp = Bitmap::new(48, 48);
            for y in 0..48 {
                for x in 0..48 {
                    bmp.put(x, y, ((x * 3 + y * 7 + seed as usize) % 256) as u8);
                }
            }
            for h in [
                average_hash(&bmp),
                difference_hash(&bmp),
                perceptual_hash(&bmp),
            ] {
                prop_assert_eq!(h.distance(&h), 0);
            }
            Ok(())
        },
    );
}

// ---- OCR -------------------------------------------------------------------

#[test]
fn ocr_reads_back_rendered_words() {
    let gen = |g: &mut Gen| g.vec(1..4, |g| g.string("a-z", 2..=9));
    check("ocr_reads_back_rendered_words", 256, gen, |words| {
        let text = words.join(" ");
        let html = format!("<body><p>{text}</p></body>");
        let bmp = render_page(&parse(&html), &RenderOptions::default());
        let cfg = OcrConfig {
            char_error_rate: 0.0,
            ..OcrConfig::default()
        };
        let out = recognize(&bmp, &cfg).joined();
        // Wrapping may split lines, but every word must be recovered.
        for w in &words {
            prop_assert!(out.contains(w.as_str()), "OCR lost {w:?} in {out:?}");
        }
        Ok(())
    });
}

// ---- URLs -------------------------------------------------------------------

#[test]
fn url_parse_never_panics() {
    let gen = |g: &mut Gen| g.text(0..=64);
    check("url_parse_never_panics", 256, gen, |s| {
        let _ = squatphi_domain::url::Url::parse(&s);
        Ok(())
    });
}

#[test]
fn url_round_trips() {
    let gen = |g: &mut Gen| {
        let host = format!(
            "{}{}.{}",
            g.char("a-z"),
            g.string("a-z0-9-", 0..=15),
            g.pick(&["com", "net", "org"])
        );
        let path = g.vec(0..4, |g| {
            g.below(1); // the draw of a one-way regex group
            format!("/{}", g.string("a-z0-9", 0..=8))
        });
        (host, path.concat())
    };
    check("url_round_trips", 256, gen, |(host, path)| {
        let input = format!("https://{host}{path}");
        let u = squatphi_domain::url::Url::parse(&input).expect("constructed URL valid");
        prop_assert_eq!(&u.host, &host);
        let round = squatphi_domain::url::Url::parse(&u.to_string_full()).expect("reparse");
        prop_assert_eq!(round, u);
        Ok(())
    });
}

// ---- zone files ----------------------------------------------------------------

#[test]
fn zone_round_trips_a_and_txt_records() {
    let gen = |g: &mut Gen| {
        g.vec(0..20, |g| {
            (
                format!(
                    "{}{}.{}",
                    g.char("a-z"),
                    g.string("a-z0-9-", 0..=12),
                    g.pick(&["com", "net", "org"])
                ),
                std::array::from_fn::<u8, 4, _>(|_| g.u8()),
                g.range(1..1_000_000) as u32,
                // TXT bodies, always holding a `;` (PR 25: it used to
                // start a comment even inside the quotes).
                format!(
                    "v={};{}",
                    g.string("a-z0-9 ;-", 0..=12),
                    g.string("a-z0-9 ;-", 0..=12)
                ),
                g.below(3) as u8,
            )
        })
    };
    check("zone_round_trips_a_and_txt_records", 256, gen, |entries| {
        use squatphi_dnswire::zone::{format_zone, parse_zone};
        use squatphi_dnswire::RData;
        let records: Vec<squatphi_dnswire::ResourceRecord> = entries
            .iter()
            .map(
                |(name, ip, ttl, txt, kind)| squatphi_dnswire::ResourceRecord {
                    name: name.clone(),
                    ttl: *ttl,
                    rdata: if *kind == 0 {
                        RData::Txt(txt.clone())
                    } else {
                        RData::A((*ip).into())
                    },
                },
            )
            .collect();
        let text = format_zone(&records);
        let parsed = parse_zone(&text).expect("parse own output");
        prop_assert_eq!(parsed, records);
        Ok(())
    });
}

#[test]
fn zone_parse_never_panics() {
    let gen = |g: &mut Gen| g.text(0..=200);
    check("zone_parse_never_panics", 256, gen, |s| {
        let _ = squatphi_dnswire::zone::parse_zone(&s);
        Ok(())
    });
}

// ---- sparse vectors ----------------------------------------------------------

#[test]
fn sparse_distance_matches_dense() {
    let gen = |g: &mut Gen| (sparse_entries(g), sparse_entries(g));
    check("sparse_distance_matches_dense", 256, gen, |(a, b)| {
        let (va, vb) = (sparse(&a), sparse(&b));
        let da = va.to_dense(32);
        let db = vb.to_dense(32);
        let expect: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        prop_assert!((va.sq_distance(&vb) - expect).abs() < 1e-9);
        Ok(())
    });
}

#[test]
fn sparse_cosine_bounded_and_symmetric() {
    let gen = |g: &mut Gen| (sparse_entries(g), sparse_entries(g));
    check("sparse_cosine_bounded_and_symmetric", 256, gen, |(a, b)| {
        let (va, vb) = (sparse(&a), sparse(&b));
        let c = va.cosine(&vb);
        prop_assert!((-1.0..=1.0).contains(&c), "cosine {c} out of [-1, 1]");
        prop_assert!((c - vb.cosine(&va)).abs() < 1e-12, "cosine not symmetric");
        if va.entries().iter().any(|&(_, v)| v != 0.0) {
            prop_assert!((va.cosine(&va) - 1.0).abs() < 1e-9, "self-cosine must be 1");
        }
        Ok(())
    });
}

// ---- squat generation/detection round trip --------------------------------

#[test]
fn detector_recognizes_generated_candidates() {
    use squatphi_squat::gen::{generate_all, GenBudget};
    use squatphi_squat::{BrandRegistry, SquatDetector};
    let gen = |g: &mut Gen| g.below(20) as usize;
    check(
        "detector_recognizes_generated_candidates",
        128,
        gen,
        |brand_idx| {
            let registry = BrandRegistry::with_size(20);
            let detector = SquatDetector::new(&registry);
            let brand = registry.get(brand_idx).expect("brand in range");
            let budget = GenBudget {
                homograph: 10,
                bits: 10,
                typo: 10,
                combo: 10,
                wrong_tld: 5,
            };
            let candidates = generate_all(brand, budget);
            let detected = candidates
                .iter()
                .filter(|c| detector.classify(&c.domain).is_some())
                .count();
            prop_assert!(
                detected * 100 >= candidates.len() * 90,
                "recall {detected}/{} for {}",
                candidates.len(),
                brand.label
            );
            Ok(())
        },
    );
}
