//! The eager generators the lazy per-type sequences replaced, kept only
//! as a test oracle: each built its whole candidate list, `generate_all`
//! then took a budget-sized prefix of it and formatted, punycoded and
//! parsed every label it kept.

use super::typo::{qwerty_neighbors, valid_label};
use super::{Candidate, GenBudget};
use crate::words::COMBO_WORDS;
use crate::{Brand, SquatType};
use squatphi_domain::tld::WRONG_TLD_POOL;
use squatphi_domain::{idna, ConfusableTable, DomainName};
use std::collections::HashSet;

fn homograph_candidates(label: &str) -> Vec<String> {
    let table = ConfusableTable::new();
    let chars: Vec<char> = label.chars().collect();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut push = |s: String, out: &mut Vec<String>| {
        if s != label && seen.insert(s.clone()) {
            out.push(s);
        }
    };
    for (i, &c) in chars.iter().enumerate() {
        for v in table.variants(c).filter(|v| v.is_ascii()) {
            let mut s: Vec<char> = chars.clone();
            s[i] = v;
            push(s.into_iter().collect(), &mut out);
        }
    }
    for (i, &c) in chars.iter().enumerate() {
        for seq in table.sequences(c) {
            let mut s = String::new();
            s.extend(chars.iter().take(i));
            s.push_str(seq);
            s.extend(chars.iter().skip(i + 1));
            push(s, &mut out);
        }
    }
    for (i, &c) in chars.iter().enumerate() {
        for v in table.variants(c).filter(|v| !v.is_ascii()) {
            let mut s: Vec<char> = chars.clone();
            s[i] = v;
            push(s.into_iter().collect(), &mut out);
        }
    }
    for i in 0..chars.len().saturating_sub(1) {
        if chars[i] == chars[i + 1] {
            for v in table.variants(chars[i]).filter(|v| v.is_ascii()) {
                let mut s: Vec<char> = chars.clone();
                s[i] = v;
                s[i + 1] = v;
                push(s.into_iter().collect(), &mut out);
            }
        }
    }
    const PER_POS: usize = 2;
    for i in 0..chars.len() {
        let vi: Vec<char> = table
            .variants(chars[i])
            .filter(|v| !v.is_ascii())
            .take(PER_POS)
            .collect();
        for j in (i + 1)..chars.len() {
            let vj: Vec<char> = table
                .variants(chars[j])
                .filter(|v| !v.is_ascii())
                .take(PER_POS)
                .collect();
            for &a in &vi {
                for &b in &vj {
                    let mut s: Vec<char> = chars.clone();
                    s[i] = a;
                    s[j] = b;
                    push(s.into_iter().collect(), &mut out);
                }
            }
        }
    }
    out
}

fn bits_candidates(label: &str) -> Vec<String> {
    let bytes = label.as_bytes();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            let flipped = bytes[i] ^ (1 << bit);
            let valid = flipped.is_ascii_lowercase()
                || flipped.is_ascii_digit()
                || (flipped == b'-' && i != 0 && i != bytes.len() - 1);
            if !valid || flipped == bytes[i] {
                continue;
            }
            let mut s = bytes.to_vec();
            s[i] = flipped;
            let s = String::from_utf8(s).expect("ascii stays utf8");
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
    }
    out
}

fn typo_candidates(label: &str) -> Vec<String> {
    let chars: Vec<char> = label.chars().collect();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut push = |s: String, out: &mut Vec<String>| {
        if s != label && valid_label(&s) && seen.insert(s.clone()) {
            out.push(s);
        }
    };
    for i in 0..chars.len() {
        let mut s = String::with_capacity(label.len());
        s.extend(chars.iter().take(i));
        s.extend(chars.iter().skip(i + 1));
        push(s, &mut out);
    }
    for i in 0..chars.len() {
        let mut s = String::with_capacity(label.len() + 1);
        s.extend(chars.iter().take(i + 1));
        s.push(chars[i]);
        s.extend(chars.iter().skip(i + 1));
        push(s, &mut out);
    }
    for i in 0..chars.len().saturating_sub(1) {
        let mut c = chars.clone();
        c.swap(i, i + 1);
        push(c.into_iter().collect(), &mut out);
    }
    for i in 0..=chars.len() {
        let mut pool: Vec<char> = Vec::new();
        if i > 0 {
            pool.extend(qwerty_neighbors(chars[i - 1]).chars());
        }
        if i < chars.len() {
            pool.extend(qwerty_neighbors(chars[i]).chars());
        }
        pool.push('0');
        pool.sort_unstable();
        pool.dedup();
        for c in pool {
            let mut s = String::with_capacity(label.len() + 1);
            s.extend(chars.iter().take(i));
            s.push(c);
            s.extend(chars.iter().skip(i));
            push(s, &mut out);
        }
    }
    out
}

fn combo_candidates(label: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(COMBO_WORDS.len() * 2 + 30);
    for w in COMBO_WORDS {
        out.push(format!("{label}-{w}"));
        out.push(format!("{w}-{label}"));
    }
    for w in ["freight", "pay", "store", "support", "mail"] {
        out.push(format!("go-{label}{w}"));
        out.push(format!("get-{label}{w}"));
        out.push(format!("my{label}-{w}"));
    }
    for c in 'a'..='e' {
        out.push(format!("{label}-{c}"));
    }
    out.push(format!("secure-{label}-login"));
    out.push(format!("{label}-account-verify"));
    out.push(format!("www-{label}"));
    out
}

fn wrong_tld_candidates(label: &str, own_suffix: &str) -> Vec<DomainName> {
    WRONG_TLD_POOL
        .iter()
        .filter(|t| **t != own_suffix)
        .filter_map(|t| DomainName::from_parts(label, t).ok())
        .collect()
}

/// The eager `generate_all`.
pub(super) fn generate_all(brand: &Brand, budget: GenBudget) -> Vec<Candidate> {
    let label = brand.label.as_str();
    let own_tld = brand.domain.suffix();
    let cheap = [
        "com", "net", "org", "tk", "ml", "pw", "top", "online", "bid", "ga",
    ];
    let mut out = Vec::new();
    let push_label = |l: &str, ty: SquatType, i: usize, out: &mut Vec<Candidate>| {
        let ascii = if l.is_ascii() {
            l.to_string()
        } else {
            match idna::to_ascii(l) {
                Ok(a) => a,
                Err(_) => return,
            }
        };
        let tld = if i.is_multiple_of(3) {
            own_tld
        } else {
            cheap[i % cheap.len()]
        };
        if let Ok(d) = DomainName::from_parts(&ascii, tld) {
            out.push(Candidate {
                domain: d,
                squat_type: ty,
            });
        }
    };
    let labels: [(SquatType, Vec<String>, usize); 4] = [
        (
            SquatType::Homograph,
            homograph_candidates(label),
            budget.homograph,
        ),
        (SquatType::Bits, bits_candidates(label), budget.bits),
        (SquatType::Typo, typo_candidates(label), budget.typo),
        (SquatType::Combo, combo_candidates(label), budget.combo),
    ];
    for (ty, list, limit) in labels {
        for (i, l) in list.into_iter().take(limit).enumerate() {
            push_label(&l, ty, i, &mut out);
        }
    }
    for d in wrong_tld_candidates(label, own_tld)
        .into_iter()
        .take(budget.wrong_tld)
    {
        out.push(Candidate {
            domain: d,
            squat_type: SquatType::WrongTld,
        });
    }
    out
}
