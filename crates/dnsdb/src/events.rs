//! Seeded registration event stream — the live-feed counterpart of
//! [`synth`](crate::synth) (paper §7 "discussion": elite squatters
//! register continuously; a deployed detector must watch the feed, not a
//! frozen snapshot).
//!
//! The stream is *random access*: every event is a pure function of
//! `(config, index)`, so a watch daemon can resume from any watermark in
//! O(1) without replaying RNG state. Timestamps are virtual nanoseconds
//! (fed to a [`squatphi_crawler`-style] virtual clock by the consumer)
//! and arrive in bursts — `burst` registrations packed at the head of
//! each `period_nanos` window — so bounded ingest queues actually see
//! backpressure.
//!
//! [`squatphi_crawler`-style]: crate::synth

use squatphi_squat::gen::{self, GenBudget};
use squatphi_squat::words::BENIGN_WORDS;
use squatphi_squat::BrandRegistry;
use std::net::Ipv4Addr;

/// One observed change in the registration feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A newly-registered domain appeared in the feed.
    Registration {
        /// Registered host name.
        domain: String,
        /// Its A record.
        ip: Ipv4Addr,
    },
    /// A previously-seen domain dropped out of the zone (churn /
    /// takedown / expiry).
    Deregistration {
        /// The dropped domain.
        domain: String,
    },
    /// An external feed (blacklist, CT log, abuse report) mentioned a
    /// domain we may or may not be tracking.
    FeedUpdate {
        /// The reported domain.
        domain: String,
    },
}

impl StreamEvent {
    /// Short kind label for counters and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            StreamEvent::Registration { .. } => "registration",
            StreamEvent::Deregistration { .. } => "deregistration",
            StreamEvent::FeedUpdate { .. } => "feed",
        }
    }
}

/// An event plus its position on the stream's virtual timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Zero-based stream index (the resume watermark unit).
    pub seq: u64,
    /// Virtual arrival time in nanoseconds since the stream epoch.
    /// Monotone non-decreasing in `seq`.
    pub at_nanos: u64,
    /// The event payload.
    pub event: StreamEvent,
}

/// Shape knobs for the event stream. All draws derive from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventStreamConfig {
    /// RNG seed; the whole stream is a pure function of it.
    pub seed: u64,
    /// Per-mille of registrations that are squatting domains.
    pub squat_permille: u16,
    /// Per-mille of events that are deregistrations.
    pub churn_permille: u16,
    /// Per-mille of events that are external feed updates.
    pub feed_permille: u16,
    /// Events per burst window.
    pub burst: u64,
    /// Length of one burst window in virtual nanoseconds.
    pub period_nanos: u64,
    /// Spacing between events inside a burst (clamped so a full burst
    /// fits in its window).
    pub intra_nanos: u64,
}

impl Default for EventStreamConfig {
    fn default() -> Self {
        EventStreamConfig {
            seed: 20180401,
            squat_permille: 300,
            churn_permille: 100,
            feed_permille: 50,
            burst: 5,
            period_nanos: 1_000_000,
            intra_nanos: 150_000,
        }
    }
}

/// Per-brand squat-candidate pool sizes (kept small: the stream needs
/// variety, not the full snapshot-scale pools).
const POOL_BUDGET: GenBudget = GenBudget {
    homograph: 60,
    bits: 40,
    typo: 120,
    combo: 200,
    wrong_tld: 10,
};

/// Hash-salt constants separating independent per-event draws.
const SALT_KIND: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_DOMAIN: u64 = 0xc2b2_ae3d_27d4_eb4f;
const SALT_TARGET: u64 = 0x1656_67b1_9e37_79f9;
const SALT_JITTER: u64 = 0x2545_f491_4f6c_dd1d;
const SALT_IP: u64 = 0x27d4_eb2f_1656_67c5;

/// The seeded event-stream generator.
///
/// ```
/// use squatphi_dnsdb::{EventStream, EventStreamConfig};
/// use squatphi_squat::BrandRegistry;
///
/// let registry = BrandRegistry::with_size(20);
/// let stream = EventStream::new(&EventStreamConfig::default(), &registry);
/// let first = stream.event(0);
/// assert_eq!(first.seq, 0);
/// // Random access: the same index always yields the same event.
/// assert_eq!(stream.event(41), stream.event(41));
/// ```
#[derive(Debug)]
pub struct EventStream {
    config: EventStreamConfig,
    /// Every brand's squat candidates, each stored once, in brand order.
    squat_domains: Vec<String>,
    /// One run per brand with candidates. The draw space is the candidate
    /// list with each candidate repeated `weight` times, so heavy brands
    /// dominate draws; a run maps its slots back to candidates.
    squat_runs: Vec<SlotRun>,
    /// Length of the draw space (the sum of every run's slots).
    squat_slots: usize,
    intra: u64,
}

/// One brand's stretch of the weighted draw space.
#[derive(Debug)]
struct SlotRun {
    /// First slot of the run.
    first_slot: usize,
    /// Index of the brand's first candidate in `squat_domains`.
    first_domain: usize,
    /// Slots per candidate.
    weight: usize,
}

impl EventStream {
    /// Builds the stream over `registry`'s brands. Pool construction is
    /// the only non-O(1) work; events themselves are O(log brands) lookups.
    pub fn new(config: &EventStreamConfig, registry: &BrandRegistry) -> Self {
        let mut squat_domains = Vec::new();
        let mut squat_runs = Vec::new();
        let mut squat_slots = 0;
        for brand in registry.brands() {
            // Heavier weight for short/generic labels, echoing the
            // snapshot generator's brand skew.
            let weight = 1 + 8 / brand.label.len().max(1);
            let first_domain = squat_domains.len();
            squat_domains.extend(
                gen::generate_all(brand, POOL_BUDGET)
                    .into_iter()
                    .map(|c| c.domain.into_string()),
            );
            let count = squat_domains.len() - first_domain;
            if count > 0 {
                squat_runs.push(SlotRun {
                    first_slot: squat_slots,
                    first_domain,
                    weight,
                });
                squat_slots += count * weight;
            }
        }
        let burst = config.burst.max(1);
        let intra = config
            .intra_nanos
            .max(1)
            .min(config.period_nanos.max(burst) / burst);
        EventStream {
            config: config.clone(),
            squat_domains,
            squat_runs,
            squat_slots,
            intra,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &EventStreamConfig {
        &self.config
    }

    /// The event at stream index `seq`.
    pub fn event(&self, seq: u64) -> TimedEvent {
        let event = self.payload(seq);
        TimedEvent {
            seq,
            at_nanos: self.arrival(seq),
            event,
        }
    }

    /// Virtual arrival time of event `seq`: bursts of
    /// `config.burst` events at the head of each window, with a small
    /// deterministic jitter that preserves monotonicity.
    fn arrival(&self, seq: u64) -> u64 {
        let burst = self.config.burst.max(1);
        let group = seq / burst;
        let slot = seq % burst;
        let jitter = mix(self.config.seed, seq, SALT_JITTER) % self.intra.max(1);
        group * self.config.period_nanos + slot * self.intra + jitter
    }

    fn payload(&self, seq: u64) -> StreamEvent {
        let kind_draw = (mix(self.config.seed, seq, SALT_KIND) % 1000) as u16;
        let churn = self.config.churn_permille;
        let feed = self.config.feed_permille;
        // The first event has no predecessor to churn or report on.
        if seq > 0 && kind_draw < churn {
            let target = mix(self.config.seed, seq, SALT_TARGET) % seq;
            return StreamEvent::Deregistration {
                domain: self.registration_domain(target),
            };
        }
        if seq > 0 && kind_draw < churn + feed {
            let target = mix(self.config.seed, seq, SALT_TARGET) % seq;
            return StreamEvent::FeedUpdate {
                domain: self.registration_domain(target),
            };
        }
        let h = mix(self.config.seed, seq, SALT_IP);
        StreamEvent::Registration {
            domain: self.registration_domain(seq),
            ip: public_ip(h),
        }
    }

    /// The domain *as if* index `seq` were a registration — the pure
    /// anchor churn and feed events point back at, independent of what
    /// kind index `seq` actually resolved to.
    fn registration_domain(&self, seq: u64) -> String {
        let h = mix(self.config.seed, seq, SALT_DOMAIN);
        let squatty = self.squat_slots > 0 && (h % 1000) < u64::from(self.config.squat_permille);
        if squatty {
            let slot = (h >> 10) as usize % self.squat_slots;
            let run =
                &self.squat_runs[self.squat_runs.partition_point(|r| r.first_slot <= slot) - 1];
            self.squat_domains[run.first_domain + (slot - run.first_slot) / run.weight].clone()
        } else {
            benign_domain(h)
        }
    }
}

/// SplitMix64-style avalanche over `(seed, index, salt)`.
fn mix(seed: u64, index: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index)
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A public-looking unicast IPv4 address derived from `h`.
fn public_ip(h: u64) -> Ipv4Addr {
    let mut a = (1 + h % 223) as u8;
    if a == 10 {
        a = 11;
    }
    if a == 127 {
        a = 128;
    }
    Ipv4Addr::new(a, (h >> 8) as u8, (h >> 16) as u8, (h >> 24) as u8)
}

/// A benign dictionary-material domain derived from `h`.
fn benign_domain(h: u64) -> String {
    let tlds = [
        "com", "com", "com", "net", "org", "de", "ru", "co", "io", "info",
    ];
    let w1 = BENIGN_WORDS[(h >> 3) as usize % BENIGN_WORDS.len()];
    let w2 = BENIGN_WORDS[(h >> 19) as usize % BENIGN_WORDS.len()];
    let tld = tlds[(h >> 35) as usize % tlds.len()];
    match h % 4 {
        0 => format!("{w1}.{tld}"),
        1 => format!("{w1}{}.{tld}", h % 997),
        2 => format!("{w1}{w2}.{tld}"),
        _ => format!("{w1}-{w2}.{tld}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> EventStream {
        let registry = BrandRegistry::with_size(20);
        let config = EventStreamConfig {
            seed,
            ..EventStreamConfig::default()
        };
        EventStream::new(&config, &registry)
    }

    #[test]
    fn deterministic_across_instances() {
        let a = stream(7);
        let b = stream(7);
        for i in 0..500 {
            assert_eq!(a.event(i), b.event(i), "event {i} diverged");
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let a = stream(7);
        let b = stream(8);
        let differing = (0..200).filter(|&i| a.event(i) != b.event(i)).count();
        assert!(differing > 100, "only {differing}/200 events differ");
    }

    #[test]
    fn timestamps_monotone() {
        let s = stream(1);
        let mut last = 0u64;
        for i in 0..2000 {
            let t = s.event(i).at_nanos;
            assert!(t >= last, "event {i} went back in time: {t} < {last}");
            last = t;
        }
    }

    #[test]
    fn bursts_fit_their_window() {
        let s = stream(3);
        let cfg = s.config().clone();
        for i in 0..1000 {
            let t = s.event(i).at_nanos;
            let window = i / cfg.burst;
            assert!(t >= window * cfg.period_nanos);
            assert!(t < (window + 1) * cfg.period_nanos, "event {i} overflows");
        }
    }

    #[test]
    fn all_kinds_appear_with_expected_mix() {
        let s = stream(11);
        let (mut reg, mut de, mut feed) = (0u32, 0u32, 0u32);
        for i in 0..2000 {
            match s.event(i).event {
                StreamEvent::Registration { .. } => reg += 1,
                StreamEvent::Deregistration { .. } => de += 1,
                StreamEvent::FeedUpdate { .. } => feed += 1,
            }
        }
        assert!(reg > 1500, "registrations {reg}");
        assert!(de > 100, "deregistrations {de}");
        assert!(feed > 40, "feed updates {feed}");
    }

    #[test]
    fn churn_targets_are_prior_registration_anchors() {
        let s = stream(5);
        for i in 1..1000 {
            if let StreamEvent::Deregistration { domain } = s.event(i).event {
                let found = (0..i).any(|j| s.registration_domain(j) == domain);
                assert!(found, "event {i} churns a domain no anchor produced");
            }
        }
    }

    #[test]
    fn squatting_domains_present() {
        let registry = BrandRegistry::with_size(20);
        let s = stream(2);
        let detector = squatphi_squat::SquatDetector::new(&registry);
        let mut hits = 0u32;
        for i in 0..1000 {
            if let StreamEvent::Registration { domain, .. } = s.event(i).event {
                if let Ok(d) = squatphi_domain::DomainName::parse(&domain) {
                    if detector.classify(&d).is_some() {
                        hits += 1;
                    }
                }
            }
        }
        assert!(hits > 100, "only {hits} squatting registrations in 1000");
    }

    #[test]
    fn ips_look_public() {
        let s = stream(9);
        for i in 0..500 {
            if let StreamEvent::Registration { ip, .. } = s.event(i).event {
                let o = ip.octets();
                assert!(o[0] >= 1 && o[0] <= 223 && o[0] != 10 && o[0] != 127);
            }
        }
    }

    /// Pins the first 10,000 events (index, arrival, kind, domain, IP) of
    /// the default-config stream over 40 and over all 702 brands; the
    /// digests were taken from the pool that stored each candidate once
    /// per weight slot.
    #[test]
    fn stream_golden() {
        let got: Vec<u64> = [40, 702]
            .into_iter()
            .map(|brands| {
                let s = EventStream::new(
                    &EventStreamConfig::default(),
                    &BrandRegistry::with_size(brands),
                );
                (0..10_000).fold(crate::FNV_OFFSET, |h, i| {
                    crate::fnv1a(h, format!("{:?}\n", s.event(i)).as_bytes())
                })
            })
            .collect();
        assert_eq!(
            got,
            vec![5_247_103_114_928_416_021, 5_587_338_655_825_523_879]
        );
    }

    #[test]
    fn event_kinds_label() {
        let s = stream(4);
        let k = s.event(0).event.kind();
        assert_eq!(k, "registration");
    }
}
