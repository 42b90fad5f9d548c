//! HTML page generators for the synthetic web.
//!
//! Every page variant the pipeline meets is produced here: the brands'
//! canonical login pages, phishing imitations at each evasion level,
//! parked/marketplace/benign filler, and the "easy-to-confuse" benign
//! pages with submission forms that drive classifier false positives.
//!
//! Pages are deterministic functions of their inputs — crucial for the
//! reproducibility of every downstream measurement.

use crate::behavior::{PhishingProfile, ScamKind};
use rand::prelude::*;
use rand::rngs::StdRng;
use squatphi_squat::Brand;

/// Visual styling knobs (drives layout-obfuscation distances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStyle {
    /// Logo heading level: 1 (h1, big) or 2 (h2, smaller).
    pub logo_level: u8,
    /// Decorative band heights inserted before the content.
    pub top_band: u8,
    /// Extra band between logo and form.
    pub mid_band: u8,
    /// Number of filler paragraphs.
    pub filler_paras: u8,
}

impl PageStyle {
    /// The canonical style brands use.
    pub fn canonical() -> Self {
        PageStyle {
            logo_level: 1,
            top_band: 0,
            mid_band: 0,
            filler_paras: 1,
        }
    }

    /// A style mutated to intensity 0..=3: each step moves the layout
    /// further from the canonical rendering (Figure 8's distances
    /// 7 / 24 / 38).
    pub fn obfuscated(intensity: u8, rng: &mut StdRng) -> Self {
        match intensity {
            0 => PageStyle {
                logo_level: 1,
                top_band: 0,
                mid_band: 0,
                filler_paras: 1,
            },
            1 => PageStyle {
                logo_level: 1,
                top_band: 10 + rng.gen_range(0..8),
                mid_band: 0,
                filler_paras: 2,
            },
            2 => PageStyle {
                logo_level: 2,
                top_band: 18 + rng.gen_range(0..10),
                mid_band: 12,
                filler_paras: 3,
            },
            _ => PageStyle {
                logo_level: 2,
                top_band: 30 + rng.gen_range(0..14),
                mid_band: 22,
                filler_paras: 5,
            },
        }
    }
}

/// Applies homoglyph string obfuscation to a brand word: the visual twin
/// that simple substring matching misses (`paypal` → `paypaI`-style; we
/// swap `l`→`1`, `o`→`0`, `i`→`l` deterministically).
pub fn obfuscate_brand_text(brand: &str) -> String {
    let mut out = String::with_capacity(brand.len());
    let mut swapped = false;
    for c in brand.chars() {
        let repl = match c {
            'l' if !swapped => Some('1'),
            'o' if !swapped => Some('0'),
            'i' if !swapped => Some('l'),
            _ => None,
        };
        match repl {
            Some(r) => {
                out.push(r);
                swapped = true;
            }
            None => out.push(c),
        }
    }
    if !swapped {
        // No swappable letter: uppercase-i trick on the last letter.
        out.pop();
        out.push('1');
    }
    out
}

fn style_blocks(style: &PageStyle) -> (String, String) {
    let top = if style.top_band > 0 {
        format!("<div data-fill=\"{}\"></div>", style.top_band)
    } else {
        String::new()
    };
    let mid = if style.mid_band > 0 {
        format!("<div data-fill=\"{}\"></div>", style.mid_band)
    } else {
        String::new()
    };
    (top, mid)
}

fn filler(paras: u8, seed: u64, seed_word: &str) -> String {
    // No brand labels and no template-unique words in here: the same pool
    // feeds phishing and benign pages, rotated by seed, so no filler line
    // becomes a class giveaway.
    let lines = [
        "your security is our top priority every day",
        "millions of users trust us with their accounts",
        "fast simple and secure access from any device",
        "manage everything in one place at your own pace",
        "we will never ask for your details by email",
        "download our app for the best experience",
        "read our help pages for common questions",
        "we updated our terms of service this spring",
    ];
    let start = (seed as usize).wrapping_mul(7) % lines.len();
    (0..paras as usize)
        .map(|i| format!("<p>{} {}</p>", lines[(start + i) % lines.len()], seed_word))
        .collect()
}

/// Title suffixes shared by phishing and benign sign-in pages.
const TITLE_SUFFIXES: &[&str] = &["login", "sign in", "account", "member access", "portal"];

/// Sign-in vocabulary pools shared by phishing *and* legitimate login
/// pages. Real phishing copies real sites, so the separating signal must
/// come from the combination of cues, not from template-unique words —
/// otherwise the classifier evaluation is meaningless.
const SIGNIN_PHRASES: &[&str] = &[
    "please sign in to continue your session has expired",
    "sign in to continue",
    "welcome back please sign in to your account",
    "log in to view your messages",
    "enter your credentials to access your account",
    "use your account details to sign in",
];
const ID_PLACEHOLDERS: &[&str] = &[
    "email or phone",
    "email address",
    "username",
    "user id",
    "email or username",
];
const PW_PLACEHOLDERS: &[&str] = &["password", "your password", "enter password"];
const BUTTON_LABELS: &[&str] = &["log in", "sign in", "continue", "submit"];
const ID_NAMES: &[&str] = &["email", "user", "login", "username", "identifier"];
const PW_NAMES: &[&str] = &["password", "pass", "pwd", "secret"];

fn pick<'a>(pool: &[&'a str], seed: u64, salt: u64) -> &'a str {
    pool[((seed ^ salt).wrapping_mul(0x9E37_79B9) as usize >> 3) % pool.len()]
}

const OBF_SCRIPT: &str = concat!(
    "<script>var _0x=String.fromCharCode(108,111,103,105,110);",
    "var _k=[];for(var i=0;i<8;i++){_k.push(_0x.charCodeAt(i%5));}",
    "eval('var trk=1');</script>"
);

const PLAIN_SCRIPT: &str =
    "<script>function focusFirst(){var f=document.forms[0];if(f){f.elements[0].focus();}}</script>";

/// The brand's canonical login page — what the real site serves and what
/// visual-similarity detectors compare against.
pub fn brand_login_page(brand: &Brand) -> String {
    let label = &brand.label;
    format!(
        "<html><head><title>{label} - log in or sign up</title></head><body>\
         <h1>{label}</h1>\
         <p>welcome back please sign in to continue to {label}</p>\
         {PLAIN_SCRIPT}\
         <form action=\"https://{domain}/signin\" method=\"post\">\
           <input type=\"email\" name=\"email\" placeholder=\"email or phone\">\
           <input type=\"password\" name=\"password\" placeholder=\"password\">\
           <button type=\"submit\">log in</button>\
         </form>\
         <a href=\"https://{domain}/recover\">forgot password?</a>\
         <p>new to {label}? create an account today</p>\
         </body></html>",
        domain = brand.domain.as_str(),
    )
}

/// A squatting phishing page for `brand` with the profile's evasions
/// applied. `host` is the squatting domain (used in the form action —
/// phishing forms post to the attacker's own host).
pub fn phishing_page(brand: &Brand, profile: &PhishingProfile, host: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    let style = PageStyle::obfuscated(profile.layout_obfuscation, &mut rng);
    let (top, mid) = style_blocks(&style);
    let script = if profile.code_obfuscation {
        OBF_SCRIPT
    } else {
        PLAIN_SCRIPT
    };

    // String obfuscation: the brand name disappears from HTML text —
    // either swapped for a homoglyph twin or baked into a logo image.
    let (title_brand, logo_html, mention) = if profile.string_obfuscation {
        if seed.is_multiple_of(2) {
            let twin = obfuscate_brand_text(&brand.label);
            (
                twin.clone(),
                format!("<h{lv}>{twin}</h{lv}>", lv = style.logo_level),
                twin,
            )
        } else {
            (
                "secure portal".to_string(),
                format!(
                    "<img width=\"220\" height=\"{h}\" data-text=\"{label}\">",
                    h = if style.logo_level == 1 { 44 } else { 30 },
                    label = brand.label
                ),
                "our service".to_string(),
            )
        }
    } else {
        (
            brand.label.clone(),
            format!(
                "<h{lv}>{label}</h{lv}>",
                lv = style.logo_level,
                label = brand.label
            ),
            brand.label.clone(),
        )
    };

    let body = match profile.scam {
        ScamKind::FakeSearch => format!(
            "{logo_html}\
             <form action=\"http://{host}/search\">\
               <input type=\"text\" name=\"q\" placeholder=\"search the web\">\
               <button type=\"submit\">search</button>\
             </form>\
             <p>sponsored results and trending topics near you</p>\
             <a href=\"http://{host}/ads\">advertise with us</a>",
        ),
        ScamKind::TechSupport => format!(
            "{logo_html}\
             <h3>critical alert your computer may be infected</h3>\
             <p>call support now at 1 888 555 0142 to remove the virus</p>\
             <form action=\"http://{host}/case\">\
               <input type=\"text\" name=\"name\" placeholder=\"your name\">\
               <input type=\"email\" name=\"email\" placeholder=\"email\">\
               <input type=\"password\" name=\"pin\" placeholder=\"account password\">\
               <button type=\"submit\">start remote session</button>\
             </form>",
        ),
        ScamKind::Payroll => format!(
            "{logo_html}\
             <p>employee payroll and benefits portal</p>\
             <form action=\"http://{host}/payroll\">\
               <input type=\"text\" name=\"userid\" placeholder=\"user id\">\
               <input type=\"password\" name=\"password\" placeholder=\"password\">\
               <button type=\"submit\">sign in to payroll</button>\
             </form>\
             <p>view your paycheck w2 and direct deposit with {mention}</p>",
        ),
        ScamKind::OfflineScam => format!(
            "{logo_html}\
             <p>partner and driver sign in pick up loads near you</p>\
             <form action=\"http://{host}/driver\">\
               <input type=\"email\" name=\"email\" placeholder=\"driver email\">\
               <input type=\"password\" name=\"password\" placeholder=\"password\">\
               <button type=\"submit\">access loads</button>\
             </form>\
             <p>verified carriers get instant booking with {mention}</p>",
        ),
        ScamKind::PaymentTheft => format!(
            "{logo_html}\
             <p>secure message waiting verify your identity to read it</p>\
             <form action=\"http://{host}/verify\">\
               <input type=\"text\" name=\"card\" placeholder=\"card number\">\
               <input type=\"text\" name=\"ssn\" placeholder=\"social security number\">\
               <input type=\"password\" name=\"password\" placeholder=\"online banking password\">\
               <button type=\"submit\">verify and continue</button>\
             </form>",
        ),
        // A slice of fake logins are *two-step* (email first, password on
        // the next page — the flow large providers use). No password field
        // in the captured HTML: these are the classifier's intrinsic
        // false negatives, mirroring the paper's FN rate.
        ScamKind::FakeLogin if seed % 16 == 7 => format!(
            "{logo_html}\
             <p>{phrase}</p>\
             <form action=\"http://{host}/step2.php\">\
               <input type=\"email\" name=\"email\" placeholder=\"{id_ph}\">\
               <button type=\"submit\">continue</button>\
             </form>",
            phrase = pick(SIGNIN_PHRASES, seed, 0x11),
            id_ph = pick(ID_PLACEHOLDERS, seed, 0x22),
        ),
        ScamKind::FakeLogin => format!(
            "{logo_html}\
             <p>{phrase}</p>\
             <form action=\"http://{host}/login.php\">\
               <input type=\"email\" name=\"{id_name}\" placeholder=\"{id_ph}\">\
               <input type=\"password\" name=\"{pw_name}\" placeholder=\"{pw_ph}\">\
               <button type=\"submit\">{button}</button>\
             </form>\
             <a href=\"http://{host}/recover\">forgot password?</a>",
            phrase = pick(SIGNIN_PHRASES, seed, 0x11),
            id_ph = pick(ID_PLACEHOLDERS, seed, 0x22),
            pw_ph = pick(PW_PLACEHOLDERS, seed, 0x33),
            button = pick(BUTTON_LABELS, seed, 0x44),
            id_name = pick(ID_NAMES, seed, 0xA7),
            pw_name = pick(PW_NAMES, seed, 0xB8),
        ),
    };

    format!(
        "<html><head><title>{title_brand} {suffix}</title></head><body>\
         {top}{script}{body}{mid}{filler}</body></html>",
        suffix = pick(TITLE_SUFFIXES, seed, 0xD1),
        filler = filler(style.filler_paras, seed, &mention),
    )
}

/// Generic parked page (ads, no forms).
pub fn parked_page(host: &str) -> String {
    format!(
        "<html><head><title>{host}</title></head><body>\
         <h2>{host}</h2>\
         <p>this domain is parked free courtesy of the registrar</p>\
         <a href=\"http://ads.example/click1\">related searches</a>\
         <a href=\"http://ads.example/click2\">popular categories</a>\
         </body></html>"
    )
}

/// An unrelated benign page (no forms, neutral text).
pub fn benign_page(host: &str, seed: u64) -> String {
    let topics = [
        "gardening tips",
        "weekend recipes",
        "travel notes",
        "local sports club",
        "diy projects",
    ];
    let t = topics[(seed as usize) % topics.len()];
    format!(
        "<html><head><title>{t}</title></head><body>\
         <h2>{t}</h2>\
         <p>welcome to {host} a small blog about {t}</p>\
         <p>updated weekly by volunteers</p>\
         <a href=\"/archive\">archive</a>\
         </body></html>"
    )
}

/// A legitimate login page for an unrelated service that happens to sit
/// on a squatting domain — a password form with no brand impersonation.
/// These are the negatives that force the classifier to learn more than
/// "has a password field".
pub fn benign_login_page(host: &str, brand_label: Option<&str>, seed: u64) -> String {
    let services = [
        "community forum",
        "webmail",
        "members area",
        "intranet",
        "wiki",
    ];
    let s = services[(seed as usize) % services.len()];
    // A third of legitimate logins mention a big brand in passing
    // ("available on google play", "protected by …") — together with the
    // password form this is the feature combination phishing pages show,
    // and it is what keeps the classifier's false-positive rate nonzero.
    let brand_mention = match (seed % 3, brand_label) {
        (0, Some(b)) => format!("<p>our mobile app is available on the {b} store</p>"),
        (1, Some(b)) => format!("<p>tip you can also register using your {b} address</p>"),
        _ => String::new(),
    };
    format!(
        "<html><head><title>{s} {suffix}</title></head><body>\
         <h2>{s}</h2>\
         <p>{phrase}</p>\
         <form action=\"/auth\">\
           <input type=\"{id_type}\" name=\"{id_name}\" placeholder=\"{id_ph}\">\
           <input type=\"password\" name=\"{pw_name}\" placeholder=\"{pw_ph}\">\
           <button type=\"submit\">{button}</button>\
         </form>\
         <a href=\"/reset\">forgot password?</a>\
         {brand_mention}\
         {filler}\
         </body></html>",
        phrase = pick(SIGNIN_PHRASES, seed, 0x55),
        id_type = pick(&["text", "email"], seed, 0xF3),
        id_name = pick(ID_NAMES, seed, 0xA8),
        pw_name = pick(PW_NAMES, seed, 0xB9),
        id_ph = pick(ID_PLACEHOLDERS, seed, 0x66),
        pw_ph = pick(PW_PLACEHOLDERS, seed, 0x77),
        button = pick(BUTTON_LABELS, seed, 0x88),
        filler = filler(1 + (seed % 2) as u8, seed, host),
        suffix = pick(TITLE_SUFFIXES, seed, 0xE2),
    )
}

/// Builds a benign page from the same generator phishing uses — a
/// brand-operated login mirror (`two_step = false`) or a branded
/// email-capture parking page (`two_step = true`). Same features, benign
/// operator: the irreducible overlap cell of the classification problem.
fn branded_shell(host: &str, brand_label: Option<&str>, seed: u64, two_step: bool) -> String {
    let label = brand_label.unwrap_or("google");
    let brand = Brand {
        id: 0,
        label: label.to_string(),
        domain: squatphi_domain::DomainName::parse(&format!("{label}.com")).unwrap_or_else(|_| {
            squatphi_domain::DomainName::parse("example.com").expect("static domain valid")
        }),
        category: squatphi_squat::Category::PhishTankOnly,
        alexa_rank: 0,
        phishtank_target: false,
    };
    let profile = PhishingProfile {
        brand: 0,
        scam: ScamKind::FakeLogin,
        layout_obfuscation: ((seed / 12) % 3) as u8,
        string_obfuscation: false,
        code_obfuscation: false,
        cloaking: crate::behavior::Cloaking::None,
        lifetime: crate::behavior::LifetimePattern::Stable,
    };
    // The FakeLogin generator branches to its two-step variant when
    // `seed % 16 == 7`; steer the seed accordingly (wrapping — callers
    // pass full-width hash seeds).
    let base = (seed / 12).wrapping_mul(16);
    let page_seed = if two_step {
        base.wrapping_add(7)
    } else {
        base.wrapping_add(3)
    };
    phishing_page(&brand, &profile, host, page_seed)
}

/// The paper's hard negatives: benign pages that *contain submission
/// forms* (survey boxes, feedback widgets, brand payment plugins,
/// federated "sign in with `<brand>`" logins).
pub fn confusing_benign_page(host: &str, brand_label: Option<&str>, seed: u64) -> String {
    match seed % 12 {
        0 => format!(
            "<html><head><title>customer survey</title></head><body>\
             <h2>tell us what you think</h2>\
             <p>your feedback helps {host} improve</p>\
             <form action=\"/survey\">\
               <input type=\"text\" name=\"name\" placeholder=\"name optional\">\
               <input type=\"email\" name=\"email\" placeholder=\"email optional\">\
               <textarea name=\"comments\" placeholder=\"comments\"></textarea>\
               <button type=\"submit\">send feedback</button>\
             </form></body></html>"
        ),
        1 => {
            let b = brand_label.unwrap_or("paypal");
            format!(
                "<html><head><title>donate to the club</title></head><body>\
                 <h2>support our community site</h2>\
                 <p>donations are processed securely via {b}</p>\
                 <form action=\"https://{b}.com/donate\">\
                   <input type=\"text\" name=\"amount\" placeholder=\"amount in usd\">\
                   <button type=\"submit\">donate with {b}</button>\
                 </form>\
                 <a href=\"https://twitter.com/share\">share</a></body></html>"
            )
        }
        2 => format!(
            "<html><head><title>newsletter signup</title></head><body>\
             <h2>join our newsletter</h2>\
             <p>get updates from {host} once a month no spam</p>\
             <form action=\"/subscribe\">\
               <input type=\"email\" name=\"email\" placeholder=\"your email\">\
               <button type=\"submit\">subscribe</button>\
             </form></body></html>"
        ),
        3 | 8 => benign_login_page(host, brand_label, seed / 12),
        // Benign pages that are *feature-identical* to phishing templates:
        // brand-owned defensive squats serving a copy of the real login
        // page, and branded "enter your email for updates" parking kits.
        // The classifier cannot tell these from phishing — only the manual
        // verification step can (the paper reports exactly this: its
        // classifier errors "largely come from legitimate pages that
        // contain some submission forms or third-party plugins of the
        // target brands").
        4 | 9 => branded_shell(host, brand_label, seed, true),
        5 => branded_shell(host, brand_label, seed, false),
        6 => {
            // Federated login: a legitimate page offering "sign in with
            // <brand>" — brand keyword AND a password field. The hardest
            // negative: the paper reports exactly these third-party
            // plugins as its classifier's main false-positive source.
            let b = brand_label.unwrap_or("google");
            format!(
                "<html><head><title>book club portal</title></head><body>\
                 <h2>book club portal</h2>\
                 <p>sign in with your {b} account to join the discussion on {host}</p>\
                 <form action=\"https://accounts.{b}.com/oauth\">\
                   <input type=\"email\" name=\"identifier\" placeholder=\"{b} email\">\
                   <input type=\"password\" name=\"secret\" placeholder=\"{b} password\">\
                   <button type=\"submit\">continue with {b}</button>\
                 </form>\
                 <p>we never store your {b} credentials</p>\
                 </body></html>"
            )
        }
        7 => {
            // Unofficial fan community for a brand: brand all over the
            // page *and* a member login with a password — feature-wise the
            // closest benign twin of a fake-login phishing page.
            let b = brand_label.unwrap_or("google");
            format!(
                "<html><head><title>{b} fan community</title></head><body>\
                 <h1>{b}</h1>\
                 <p>{phrase}</p>\
                 <form action=\"/members\">\
                   <input type=\"text\" name=\"{id_name}\" placeholder=\"{id_ph}\">\
                   <input type=\"password\" name=\"{pw_name}\" placeholder=\"{pw_ph}\">\
                   <button type=\"submit\">{button}</button>\
                 </form>\
                 <p>fan news and discussion about {b} not affiliated with {b}</p>\
                 </body></html>",
                phrase = pick(SIGNIN_PHRASES, seed, 0x99),
                id_name = pick(ID_NAMES, seed, 0xDD),
                pw_name = pick(PW_NAMES, seed, 0xEE),
                id_ph = pick(ID_PLACEHOLDERS, seed, 0xAA),
                pw_ph = pick(PW_PLACEHOLDERS, seed, 0xBB),
                button = pick(BUTTON_LABELS, seed, 0xCC),
            )
        }
        10 => format!(
            "<html><head><title>contact us</title></head><body>\
             <h2>contact {host}</h2>\
             <p>questions about an order send us a message</p>\
             <form action=\"/contact\">\
               <input type=\"text\" name=\"subject\" placeholder=\"subject\">\
               <input type=\"email\" name=\"email\" placeholder=\"email address\">\
               <textarea name=\"body\" placeholder=\"message\"></textarea>\
               <button type=\"submit\">send message</button>\
             </form></body></html>"
        ),
        _ => {
            let b = brand_label.unwrap_or("google");
            format!(
                "<html><head><title>price tracker</title></head><body>\
                 <h2>price tracker</h2>\
                 <p>track prices from {b} and other stores on {host}</p>\
                 <form action=\"/track\">\
                   <input type=\"text\" name=\"url\" placeholder=\"paste a product link\">\
                   <button type=\"submit\">track price</button>\
                 </form></body></html>"
            )
        }
    }
}

/// Non-squatting phishing page (for the PhishTank ground-truth set):
/// hosted on random infrastructure, typically less evasive (Table 11).
pub fn non_squatting_phishing_page(brand: &Brand, evasive: bool, host: &str, seed: u64) -> String {
    let profile = PhishingProfile {
        brand: brand.id,
        scam: ScamKind::FakeLogin,
        layout_obfuscation: if evasive { 2 } else { 1 },
        string_obfuscation: evasive,
        code_obfuscation: seed % 8 < 3, // ~37.5% (Table 11)
        cloaking: crate::behavior::Cloaking::None,
        lifetime: crate::behavior::LifetimePattern::Stable,
    };
    phishing_page(brand, &profile, host, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Cloaking, LifetimePattern};
    use squatphi_html::{extract::extract_forms, extract::extract_text, js::scan_document, parse};
    use squatphi_squat::BrandRegistry;

    fn profile(layout: u8, string_obf: bool, code_obf: bool) -> PhishingProfile {
        PhishingProfile {
            brand: 0,
            scam: ScamKind::FakeLogin,
            layout_obfuscation: layout,
            string_obfuscation: string_obf,
            code_obfuscation: code_obf,
            cloaking: Cloaking::None,
            lifetime: LifetimePattern::Stable,
        }
    }

    #[test]
    fn brand_page_has_login_form_and_brand_text() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let doc = parse(&brand_login_page(brand));
        let forms = extract_forms(&doc);
        assert_eq!(forms.len(), 1);
        assert!(forms[0].has_password());
        assert!(extract_text(&doc).joined_lower().contains("paypal"));
    }

    #[test]
    fn plain_phishing_page_mentions_brand() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let html = phishing_page(brand, &profile(0, false, false), "paypal-cash.com", 1);
        let doc = parse(&html);
        assert!(extract_text(&doc).joined_lower().contains("paypal"));
        assert!(extract_forms(&doc)[0].has_password());
    }

    #[test]
    fn string_obfuscation_hides_brand_from_html_text() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        for seed in [2, 3] {
            // seed parity selects homoglyph vs image-logo variants.
            let html = phishing_page(brand, &profile(1, true, false), "paypal-cash.com", seed);
            let text = extract_text(&parse(&html)).joined_lower();
            assert!(
                !text.contains("paypal"),
                "brand leaked into HTML text (seed {seed}): {text}"
            );
        }
    }

    #[test]
    fn code_obfuscation_detected_by_js_scanner() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let clean = phishing_page(brand, &profile(0, false, false), "h.com", 1);
        let obf = phishing_page(brand, &profile(0, false, true), "h.com", 1);
        assert!(!scan_document(&parse(&clean)).is_obfuscated());
        assert!(scan_document(&parse(&obf)).is_obfuscated());
    }

    #[test]
    fn layout_intensity_changes_markup() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let a = phishing_page(brand, &profile(0, false, false), "h.com", 7);
        let b = phishing_page(brand, &profile(3, false, false), "h.com", 7);
        assert_ne!(a, b);
        assert!(
            b.contains("data-fill"),
            "heavy layout obfuscation adds bands"
        );
    }

    #[test]
    fn all_scam_kinds_have_forms() {
        let reg = BrandRegistry::with_size(20);
        let brand = reg.by_label("uber").unwrap();
        for scam in ScamKind::ALL {
            let p = PhishingProfile {
                scam,
                ..profile(1, false, false)
            };
            let html = phishing_page(brand, &p, "go-uberfreight.com", 3);
            let forms = extract_forms(&parse(&html));
            assert!(!forms.is_empty(), "{scam:?} has no form");
        }
    }

    #[test]
    fn obfuscate_brand_text_changes_string() {
        assert_ne!(obfuscate_brand_text("paypal"), "paypal");
        assert_ne!(obfuscate_brand_text("uber"), "uber");
        // Visual length preserved.
        assert_eq!(obfuscate_brand_text("paypal").len(), "paypal".len());
    }

    #[test]
    fn confusing_benign_pages_all_have_forms() {
        for seed in 0..12 {
            let html = confusing_benign_page("example.com", Some("paypal"), seed);
            let forms = extract_forms(&parse(&html));
            assert!(
                !forms.is_empty(),
                "confusing benign page (seed {seed}) should have a form"
            );
        }
        let plain = benign_page("example.com", 1);
        assert!(extract_forms(&parse(&plain)).is_empty());
    }

    #[test]
    fn hard_negatives_include_password_forms() {
        // Benign logins and federated-login plugins carry password fields;
        // the classifier must not treat "password input" alone as phishing.
        let login = benign_login_page("example.com", None, 0);
        assert!(extract_forms(&parse(&login))[0].has_password());
        let federated = confusing_benign_page("example.com", Some("google"), 6);
        let forms = extract_forms(&parse(&federated));
        assert!(forms[0].has_password());
        assert!(federated.contains("google"));
    }

    #[test]
    fn pages_are_deterministic() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("paypal").unwrap();
        let p = profile(2, true, true);
        assert_eq!(
            phishing_page(brand, &p, "h.com", 9),
            phishing_page(brand, &p, "h.com", 9)
        );
    }

    #[test]
    fn non_squatting_variant_builds() {
        let reg = BrandRegistry::with_size(5);
        let brand = reg.by_label("facebook").unwrap();
        let html = non_squatting_phishing_page(brand, false, "xyz.000webhostapp.com", 4);
        assert!(extract_forms(&parse(&html))[0].has_password());
    }
}
