//! Perceptual image hashing (paper §4.2 "Layout Obfuscation").
//!
//! The paper measures layout obfuscation as the Hamming distance between
//! perceptual hashes of the phishing screenshot and the brand's real page
//! (Figures 8-9). This crate implements the three classic hashes from
//! scratch on our [`squatphi_render::Bitmap`]:
//!
//! * [`average_hash`] — 8×8 mean-threshold (64-bit),
//! * [`difference_hash`] — 9×8 horizontal-gradient (64-bit),
//! * [`perceptual_hash`] — 32×32 2-D DCT, top-left 8×8 low-frequency
//!   block thresholded at its median (64-bit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;

use squatphi_render::Bitmap;
use std::sync::OnceLock;

/// A 64-bit perceptual hash.
///
/// Ordering is plain `u64` ordering of the raw bits; the index uses it only
/// for deterministic tie-breaking, never as a similarity measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageHash(pub u64);

/// Hamming distance between two raw 64-bit hash words (0..=64).
///
/// The one shared distance path: [`ImageHash::distance`], [`phash_distance`],
/// the [`index::HashIndex`] verifier and the [`index::linear`] oracle all
/// delegate here, so production and oracle cannot diverge.
pub fn hamming64(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

impl ImageHash {
    /// Construct a hash from its raw 64-bit word.
    pub fn from_bits(bits: u64) -> ImageHash {
        ImageHash(bits)
    }

    /// The raw 64-bit word.
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Hamming distance to another hash (0..=64).
    pub fn distance(&self, other: &ImageHash) -> u32 {
        hamming64(self.0, other.0)
    }
}

impl std::fmt::Display for ImageHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// 8×8 average hash: each bit is 1 when the cell exceeds the mean.
pub fn average_hash(bmp: &Bitmap) -> ImageHash {
    let small = bmp.resample(8, 8);
    let mean = small.mean();
    let mut bits = 0u64;
    for y in 0..8 {
        for x in 0..8 {
            if small.get(x, y) as f64 > mean {
                bits |= 1 << (y * 8 + x);
            }
        }
    }
    ImageHash(bits)
}

/// 9×8 difference hash: each bit is 1 when a cell is brighter than its
/// right neighbor.
pub fn difference_hash(bmp: &Bitmap) -> ImageHash {
    let small = bmp.resample(9, 8);
    let mut bits = 0u64;
    for y in 0..8 {
        for x in 0..8 {
            if small.get(x, y) > small.get(x + 1, y) {
                bits |= 1 << (y * 8 + x);
            }
        }
    }
    ImageHash(bits)
}

/// Side of the resampled thumbnail the DCT runs over.
const N: usize = 32;
/// Side of the low-frequency corner the hash keeps.
const K: usize = 8;

/// `cos(π/N · (x + ½) · u)` for `u < K`, `x < N`: the only DCT-II basis
/// values the hash reads. Filled once, with the expression the full
/// transform evaluates per term, so every product is the same `f64`.
fn cos_table() -> &'static [[f64; N]; K] {
    static TABLE: OnceLock<[[f64; N]; K]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0.0; N]; K];
        for (u, row) in table.iter_mut().enumerate() {
            for (x, c) in row.iter_mut().enumerate() {
                *c = ((std::f64::consts::PI / N as f64) * (x as f64 + 0.5) * u as f64).cos();
            }
        }
        table
    })
}

/// 32×32 DCT perceptual hash. Robust to small translations/rescaling;
/// the paper's distances (7 / 24 / 38 for increasingly obfuscated pages)
/// are produced by this family of hashes.
///
/// Only the `u, v < 8` corner of the separable DCT-II is computed — rows,
/// then columns, each sum in ascending index order with a separate
/// multiply and add — so the 64 coefficients are bit-for-bit those of the
/// full naive transform (kept as the oracle in
/// `crates/core/tests/analysis_kernels.rs`).
pub fn perceptual_hash(bmp: &Bitmap) -> ImageHash {
    let small = bmp.resample(N, N);
    let cos = cos_table();
    let mut rows = [[0.0f64; K]; N];
    for (line, row) in small.pixels().chunks_exact(N).zip(&mut rows) {
        for (basis, out) in cos.iter().zip(row) {
            let mut sum = 0.0;
            for (&p, &c) in line.iter().zip(basis) {
                sum += p as f64 * c;
            }
            *out = sum;
        }
    }
    // block[v * K + u]; the DC coefficient (index 0) is skipped for the
    // median.
    let mut block = [0.0f64; K * K];
    for (v, basis) in cos.iter().enumerate() {
        for u in 0..K {
            let mut sum = 0.0;
            for (row, &c) in rows.iter().zip(basis) {
                sum += row[u] * c;
            }
            block[v * K + u] = sum;
        }
    }
    let mut sorted = [0.0f64; K * K - 1];
    sorted.copy_from_slice(&block[1..]);
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite DCT coefficients"));
    let median = sorted[sorted.len() / 2];
    let mut bits = 0u64;
    for (i, &c) in block.iter().enumerate() {
        if c > median {
            bits |= 1 << i;
        }
    }
    ImageHash(bits)
}

/// Convenience: pHash distance between two bitmaps.
pub fn phash_distance(a: &Bitmap, b: &Bitmap) -> u32 {
    perceptual_hash(a).distance(&perceptual_hash(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(seed: u8) -> Bitmap {
        let mut b = Bitmap::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                let v = ((x * 7 + y * 13 + seed as usize * 31) % 256) as u8;
                b.put(x, y, v);
            }
        }
        b
    }

    #[test]
    fn identical_images_distance_zero() {
        let a = textured(1);
        for h in [average_hash(&a), difference_hash(&a), perceptual_hash(&a)] {
            assert_eq!(h.distance(&h), 0);
        }
    }

    #[test]
    fn small_perturbation_small_distance() {
        let a = textured(1);
        let mut b = a.clone();
        b.fill_rect(0, 0, 4, 4, 255); // tiny blotch
        let d = phash_distance(&a, &b);
        assert!(d <= 10, "tiny change moved hash by {d}");
    }

    #[test]
    fn different_textures_large_distance() {
        let mut a = Bitmap::new(64, 64);
        a.fill_rect(0, 0, 32, 64, 255); // left half dark
        let mut b = Bitmap::new(64, 64);
        b.fill_rect(0, 0, 64, 32, 255); // top half dark
        let d = phash_distance(&a, &b);
        assert!(d >= 12, "structurally different images only {d} apart");
    }

    #[test]
    fn phash_robust_to_rescale() {
        let a = textured(3);
        let bigger = a.resample(128, 128);
        let d = perceptual_hash(&a).distance(&perceptual_hash(&bigger));
        assert!(d <= 6, "rescale moved pHash by {d}");
    }

    #[test]
    fn ahash_and_dhash_disagree_with_phash_sometimes() {
        // Not a correctness property, just ensures the three functions are
        // actually distinct computations.
        let a = textured(5);
        let h1 = average_hash(&a).0;
        let h2 = difference_hash(&a).0;
        let h3 = perceptual_hash(&a).0;
        assert!(h1 != h2 || h2 != h3);
    }

    #[test]
    fn display_is_hex() {
        let s = ImageHash(0xDEAD_BEEF).to_string();
        assert_eq!(s, "00000000deadbeef");
    }

    #[test]
    fn from_bits_round_trips_and_orders_by_raw_word() {
        let a = ImageHash::from_bits(0x1);
        let b = ImageHash::from_bits(0x2);
        assert_eq!(a.to_bits(), 0x1);
        assert!(a < b);
        assert_eq!(a.distance(&b), hamming64(0x1, 0x2));
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = perceptual_hash(&textured(1));
        let b = perceptual_hash(&textured(9));
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b) <= 64);
    }
}
