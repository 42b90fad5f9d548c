//! Hand-rolled CRC-32C (Castagnoli), the checksum guarding every
//! [`StateFile`](crate::store) body.
//!
//! Polynomial `0x1EDC6F41` (reflected form `0x82F63B78`), init and final
//! XOR `0xFFFF_FFFF` — the same parameters as the SSE4.2 `crc32`
//! instruction and RFC 3720 (iSCSI), chosen over CRC-32/zlib for its
//! better error-detection properties on short records. Table-driven,
//! one 256-entry table built at compile time; zero dependencies like the
//! rest of the workspace.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// 256-entry lookup table, one byte of input per step.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32C of `bytes` in one shot.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_parts(&[bytes])
}

/// CRC-32C of the concatenation of `parts`, without joining them (a
/// journal frame checksums its length word and its payload, which sit
/// either side of the checksum itself).
pub(crate) fn crc32c_parts(parts: &[&[u8]]) -> u32 {
    let mut crc = u32::MAX;
    for part in parts {
        for &b in *part {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
        }
    }
    crc ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 3720 §B.4 / crc32c reference vectors.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    /// Every single-bit flip in a small record changes the checksum — the
    /// property the corruption classifier leans on.
    #[test]
    fn single_bit_flips_always_detected() {
        let base = b"squatphi durable state record 0123456789";
        let crc = crc32c(base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.to_vec();
                mutated[i] ^= 1 << bit;
                assert_ne!(
                    crc32c(&mutated),
                    crc,
                    "flip at byte {i} bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn truncations_always_detected() {
        let base = b"squatphi durable state record 0123456789";
        let crc = crc32c(base);
        for end in 0..base.len() {
            assert_ne!(crc32c(&base[..end]), crc, "truncation to {end} undetected");
        }
    }
}
