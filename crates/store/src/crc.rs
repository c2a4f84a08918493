//! CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32` variant) — the
//! per-section integrity check of the container format and the
//! per-record check of the write-ahead log.
//!
//! The workspace builds without network access, so the checksum is
//! implemented here: reflected polynomial `0xEDB8_8320`, init and final
//! XOR `0xFFFF_FFFF` — byte-for-byte the checksum `zlib.crc32`
//! produces, which keeps the format verifiable from Python in CI.
//!
//! The kernel is slicing-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step with eight independent
//! lookups instead of eight dependent ones. `TABLES[0]` is the classic
//! bytewise table; `TABLES[k][b]` is the CRC register after byte `b`
//! is followed by `k` zero bytes, so the eight lookups of one step XOR
//! to exactly what eight bytewise steps compute. The tail (fewer than
//! eight bytes) runs bytewise.

const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `bytes` (IEEE polynomial, zlib-compatible).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise reference: one table step per byte, with the table
    /// rebuilt bit by bit so it shares nothing with the kernel's.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            let mut x = (crc ^ b as u32) & 0xFF;
            for _ in 0..8 {
                x = if x & 1 == 1 { (x >> 1) ^ POLY } else { x >> 1 };
            }
            crc = (crc >> 8) ^ x;
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_answer_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        // Lengths 0..=300 cross every tail length many times over;
        // offsets 0..8 start the 8-byte steps at every alignment.
        let buf: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xA5u8; 257];
        let clean = crc32(&data);
        for byte in [0usize, 1, 128, 256] {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), clean);
    }

    proptest! {
        #[test]
        fn slicing_matches_bytewise_on_random_buffers(
            bytes in prop::collection::vec(0u8..=255, 0..4096),
            skip in 0usize..8,
        ) {
            let s = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }
}
