//! Simulation-scale configuration shared by the whole pipeline.

use squatphi_dnsdb::SnapshotConfig;
use squatphi_feeds::FeedConfig;
use squatphi_web::WorldConfig;

/// All the scale knobs of one reproduction run.
///
/// The haystack (DNS records, squatting population) scales down by a
/// divisor while the small-count populations (phishing domains, the
/// ground-truth feed) stay near paper scale, so the shape of every table
/// survives scaling.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// DNS snapshot shape.
    pub snapshot: SnapshotConfig,
    /// Web-world behavior mix.
    pub world: WorldConfig,
    /// Ground-truth feed shape.
    pub feed: FeedConfig,
    /// Brands monitored (the paper's 702).
    pub brands: usize,
    /// Scan / crawl / feature-extraction / cross-validation worker threads.
    pub threads: usize,
    /// Number of "easy-to-confuse" benign squatting pages added to the
    /// training negatives (paper: 1,565).
    pub sampled_benign: usize,
    /// Cross-validation folds (paper: 10).
    pub cv_folds: usize,
    /// Master seed.
    pub seed: u64,
}

impl SimConfig {
    /// Paper scale divided by `divisor` for the haystack; everything
    /// small stays full-size.
    pub fn paper_scale(divisor: usize) -> Self {
        SimConfig {
            snapshot: SnapshotConfig::paper_scale(divisor),
            world: WorldConfig::default(),
            feed: FeedConfig::default(),
            brands: 702,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            sampled_benign: 1_565,
            cv_folds: 10,
            seed: 2018,
        }
    }

    /// The smallest configuration that still exercises every stage —
    /// sized for oracles that run the full pipeline many times per
    /// invocation (the conformance supervision oracle, chaos matrices).
    pub fn micro() -> Self {
        SimConfig {
            snapshot: SnapshotConfig {
                benign_records: 800,
                squatting_records: 300,
                subdomain_fraction: 0.2,
                seed: 11,
            },
            world: WorldConfig {
                phishing_domains: 40,
                seed: 12,
                ..WorldConfig::default()
            },
            feed: FeedConfig {
                total_urls: 200,
                seed: 13,
            },
            brands: 24,
            threads: 2,
            sampled_benign: 60,
            cv_folds: 3,
            seed: 14,
        }
    }

    /// A configuration small enough for unit tests (seconds, not minutes).
    pub fn tiny() -> Self {
        SimConfig {
            snapshot: SnapshotConfig {
                benign_records: 3_000,
                squatting_records: 900,
                subdomain_fraction: 0.2,
                seed: 11,
            },
            world: WorldConfig {
                phishing_domains: 120,
                seed: 12,
                ..WorldConfig::default()
            },
            feed: FeedConfig {
                total_urls: 700,
                seed: 13,
            },
            brands: 60,
            threads: 4,
            sampled_benign: 150,
            cv_folds: 5,
            seed: 14,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_scales_haystack_only() {
        let full = SimConfig::paper_scale(1);
        let scaled = SimConfig::paper_scale(100);
        assert_eq!(
            scaled.snapshot.benign_records,
            full.snapshot.benign_records / 100
        );
        assert_eq!(scaled.world.phishing_domains, full.world.phishing_domains);
        assert_eq!(scaled.feed.total_urls, full.feed.total_urls);
        assert_eq!(scaled.brands, 702);
    }

    #[test]
    fn tiny_is_small() {
        let t = SimConfig::tiny();
        assert!(t.snapshot.benign_records <= 5_000);
        assert!(t.brands <= 100);
    }
}
