//! Property-based tests over the core substrates.

use proptest::prelude::*;
use squatphi_dnswire::{Message, RData, Rcode, RecordType, ResourceRecord};
use squatphi_domain::{distance, idna, punycode, DomainName};
use squatphi_html::{parse, tokenize};
use squatphi_imghash::{average_hash, difference_hash, perceptual_hash};
use squatphi_nlp::SparseVec;
use squatphi_ocr::{recognize, OcrConfig};
use squatphi_render::{render_page, Bitmap, RenderOptions};

/// The checked-in `tests/properties.proptest-regressions` must actually be
/// found and parsed by the runner — a silently-missing regression file
/// would quietly stop replaying known-bad inputs.
#[test]
fn regression_file_is_loaded() {
    let seeds = proptest::regressions::load_for_source(file!(), env!("CARGO_MANIFEST_DIR"));
    assert!(
        !seeds.is_empty(),
        "tests/properties.proptest-regressions exists but no seeds were loaded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- punycode / IDNA -------------------------------------------------

    #[test]
    fn punycode_round_trips_unicode_labels(s in "\\PC{1,24}") {
        if let Ok(encoded) = punycode::encode(&s) {
            prop_assert!(encoded.is_ascii());
            if !s.is_ascii() {
                let decoded = punycode::decode(&encoded).expect("decode what we encoded");
                prop_assert_eq!(decoded, s);
            }
        }
    }

    #[test]
    fn punycode_decode_never_panics(s in "[a-z0-9-]{0,32}") {
        let _ = punycode::decode(&s);
    }

    #[test]
    fn idna_round_trips_lowercase_labels(s in "[a-zàéöκогž]{1,16}") {
        let domain = format!("{s}.com");
        if let Ok(ascii) = idna::to_ascii(&domain) {
            prop_assert!(ascii.is_ascii());
            prop_assert_eq!(idna::to_unicode(&ascii), domain);
        }
    }

    // ---- distances --------------------------------------------------------

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        let ab = distance::levenshtein(&a, &b);
        let ba = distance::levenshtein(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(distance::levenshtein(&a, &a), 0);
        let ac = distance::levenshtein(&a, &c);
        let bc = distance::levenshtein(&b, &c);
        prop_assert!(ac <= ab + bc, "triangle inequality violated");
    }

    #[test]
    fn damerau_never_exceeds_levenshtein(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        prop_assert!(distance::damerau_levenshtein(&a, &b) <= distance::levenshtein(&a, &b));
    }

    #[test]
    fn bit_flip_distance_is_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        prop_assert_eq!(
            distance::bit_flip_distance(&a, &b),
            distance::bit_flip_distance(&b, &a)
        );
        // Self-distance on ASCII input is always "zero flips".
        prop_assert_eq!(distance::bit_flip_distance(&a, &a), Some(0));
    }

    // ---- domain names -----------------------------------------------------

    #[test]
    fn domain_parse_never_panics(s in "\\PC{0,64}") {
        let _ = DomainName::parse(&s);
    }

    #[test]
    fn parsed_domains_are_idempotent(label in "[a-z][a-z0-9]{0,20}", tld in "(com|net|org|tk|audi|com\\.ua)") {
        let d = DomainName::parse(&format!("{label}.{tld}")).expect("valid input");
        let d2 = DomainName::parse(d.as_str()).expect("reparse");
        prop_assert_eq!(d, d2);
    }

    #[test]
    fn domain_display_round_trips(
        sub in "([a-z][a-z0-9]{0,8}\\.){0,2}",
        label in "[a-z][a-z0-9-]{0,14}[a-z0-9]",
        tld in "(com|net|org|pw|top|com\\.ua)",
    ) {
        // parse → Display → parse is the identity for every valid name,
        // including subdomain chains and multi-label public suffixes.
        if let Ok(d) = DomainName::parse(&format!("{sub}{label}.{tld}")) {
            let shown = d.to_string();
            let reparsed = DomainName::parse(&shown).expect("display output reparses");
            prop_assert_eq!(&reparsed, &d);
            prop_assert_eq!(shown, d.as_str());
        }
    }

    // ---- DNS wire ----------------------------------------------------------

    #[test]
    fn dns_query_round_trips(name in "[a-z]{1,12}(\\.[a-z]{1,12}){0,3}", id in any::<u16>()) {
        let q = Message::query(id, &name, RecordType::A);
        let decoded = Message::decode(&q.encode().expect("encode")).expect("decode");
        prop_assert_eq!(decoded, q);
    }

    #[test]
    fn dns_response_round_trips(
        name in "[a-z]{1,12}\\.[a-z]{2,4}",
        ip in any::<[u8; 4]>(),
        ttl in 0u32..1_000_000,
    ) {
        let q = Message::query(1, &name, RecordType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(ResourceRecord {
            name: name.clone(),
            ttl,
            rdata: RData::A(ip.into()),
        });
        let decoded = Message::decode(&r.encode().expect("encode")).expect("decode");
        prop_assert_eq!(decoded, r);
    }

    #[test]
    fn dns_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    // ---- HTML ---------------------------------------------------------------

    #[test]
    fn html_tokenizer_never_panics(s in "\\PC{0,300}") {
        let _ = tokenize(&s);
        let _ = parse(&s);
    }

    #[test]
    fn html_serialize_reparse_preserves_text(words in proptest::collection::vec("[a-z]{1,8}", 1..6)) {
        let text = words.join(" ");
        let html = format!("<body><p>{text}</p></body>");
        let doc = parse(&html);
        let round = parse(&doc.serialize(squatphi_html::Document::ROOT));
        prop_assert_eq!(
            round.subtree_text(squatphi_html::Document::ROOT),
            doc.subtree_text(squatphi_html::Document::ROOT)
        );
    }

    // ---- HTTP codec ------------------------------------------------------------

    #[test]
    fn http_request_round_trips(
        host in "[a-z][a-z0-9-]{0,20}\\.(com|net|org|pw)",
        path in "(/[a-z0-9]{0,6}){0,3}",
    ) {
        use squatphi_http::codec::{find_head_end, Request};
        let req = Request::get(&host, if path.is_empty() { "/" } else { &path }, squatphi_http::ua::WEB);
        let wire = req.encode();
        let head_end = find_head_end(&wire).expect("request has a head");
        let parsed = Request::parse(std::str::from_utf8(&wire[..head_end]).expect("ascii"))
            .expect("parse own request");
        prop_assert_eq!(parsed, req);
    }

    #[test]
    fn http_response_round_trips(body in "\\PC{0,300}") {
        use squatphi_http::codec::Response;
        let resp = Response::ok(body);
        let parsed = Response::parse(&resp.encode()).expect("parse own response");
        prop_assert_eq!(parsed, resp);
    }

    #[test]
    fn http_parsers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        use squatphi_http::codec::{Request, Response};
        let _ = Response::parse(&bytes);
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = Request::parse(s);
        }
    }

    // ---- image hashing -------------------------------------------------------

    #[test]
    fn image_hashes_are_deterministic_and_self_zero(seed in any::<u8>()) {
        let mut bmp = Bitmap::new(48, 48);
        for y in 0..48 {
            for x in 0..48 {
                bmp.put(x, y, ((x * 3 + y * 7 + seed as usize) % 256) as u8);
            }
        }
        for h in [average_hash(&bmp), difference_hash(&bmp), perceptual_hash(&bmp)] {
            prop_assert_eq!(h.distance(&h), 0);
        }
    }

    // ---- OCR -------------------------------------------------------------------

    #[test]
    fn ocr_reads_back_rendered_words(words in proptest::collection::vec("[a-z]{2,9}", 1..4)) {
        let text = words.join(" ");
        let html = format!("<body><p>{text}</p></body>");
        let bmp = render_page(&parse(&html), &RenderOptions::default());
        let cfg = OcrConfig { char_error_rate: 0.0, ..OcrConfig::default() };
        let out = recognize(&bmp, &cfg).joined();
        // Wrapping may split lines, but every word must be recovered.
        for w in &words {
            prop_assert!(out.contains(w.as_str()), "OCR lost {w:?} in {out:?}");
        }
    }

    // ---- URLs -------------------------------------------------------------------

    #[test]
    fn url_parse_never_panics(s in "\\PC{0,64}") {
        let _ = squatphi_domain::url::Url::parse(&s);
    }

    #[test]
    fn url_round_trips(
        host in "[a-z][a-z0-9-]{0,15}\\.(com|net|org)",
        path in "(/[a-z0-9]{0,8}){0,3}",
    ) {
        let input = format!("https://{host}{path}");
        let u = squatphi_domain::url::Url::parse(&input).expect("constructed URL valid");
        prop_assert_eq!(&u.host, &host);
        let round = squatphi_domain::url::Url::parse(&u.to_string_full()).expect("reparse");
        prop_assert_eq!(round, u);
    }

    // ---- zone files ----------------------------------------------------------------

    #[test]
    fn zone_round_trips_a_and_txt_records(
        entries in proptest::collection::vec(
            (
                "[a-z][a-z0-9-]{0,12}\\.(com|net|org)",
                any::<[u8; 4]>(),
                1u32..1_000_000,
                // TXT bodies, always holding a `;` (PR 25: it used to
                // start a comment even inside the quotes).
                "v=[a-z0-9 ;-]{0,12};[a-z0-9 ;-]{0,12}",
                0u8..3,
            ),
            0..20,
        )
    ) {
        use squatphi_dnswire::zone::{format_zone, parse_zone};
        use squatphi_dnswire::RData;
        let records: Vec<squatphi_dnswire::ResourceRecord> = entries
            .iter()
            .map(|(name, ip, ttl, txt, kind)| squatphi_dnswire::ResourceRecord {
                name: name.clone(),
                ttl: *ttl,
                rdata: if *kind == 0 { RData::Txt(txt.clone()) } else { RData::A((*ip).into()) },
            })
            .collect();
        let text = format_zone(&records);
        let parsed = parse_zone(&text).expect("parse own output");
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn zone_parse_never_panics(s in "\\PC{0,200}") {
        let _ = squatphi_dnswire::zone::parse_zone(&s);
    }

    // ---- sparse vectors ----------------------------------------------------------

    #[test]
    fn sparse_distance_matches_dense(
        a in proptest::collection::vec((0usize..32, 0.0f64..8.0), 0..10),
        b in proptest::collection::vec((0usize..32, 0.0f64..8.0), 0..10),
    ) {
        let mut va = SparseVec::new();
        for (i, v) in &a {
            va.add(*i, *v);
        }
        let mut vb = SparseVec::new();
        for (i, v) in &b {
            vb.add(*i, *v);
        }
        let da = va.to_dense(32);
        let db = vb.to_dense(32);
        let expect: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        prop_assert!((va.sq_distance(&vb) - expect).abs() < 1e-9);
    }

    #[test]
    fn sparse_cosine_bounded_and_symmetric(
        a in proptest::collection::vec((0usize..32, 0.0f64..8.0), 0..10),
        b in proptest::collection::vec((0usize..32, 0.0f64..8.0), 0..10),
    ) {
        let mut va = SparseVec::new();
        for (i, v) in &a {
            va.add(*i, *v);
        }
        let mut vb = SparseVec::new();
        for (i, v) in &b {
            vb.add(*i, *v);
        }
        let c = va.cosine(&vb);
        prop_assert!((-1.0..=1.0).contains(&c), "cosine {c} out of [-1, 1]");
        prop_assert!((c - vb.cosine(&va)).abs() < 1e-12, "cosine not symmetric");
        if va.entries().iter().any(|&(_, v)| v != 0.0) {
            prop_assert!((va.cosine(&va) - 1.0).abs() < 1e-9, "self-cosine must be 1");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- squat generation/detection round trip --------------------------------

    #[test]
    fn detector_recognizes_generated_candidates(brand_idx in 0usize..20) {
        use squatphi_squat::gen::{generate_all, GenBudget};
        use squatphi_squat::{BrandRegistry, SquatDetector};
        let registry = BrandRegistry::with_size(20);
        let detector = SquatDetector::new(&registry);
        let brand = registry.get(brand_idx).expect("brand in range");
        let budget = GenBudget { homograph: 10, bits: 10, typo: 10, combo: 10, wrong_tld: 5 };
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
    }
}
