//! SEC-DED codec: extended Hamming(72,64) over `u64` storage words.
//!
//! This is the standard accelerator SRAM/DRAM protection scheme — 8
//! check bits per 64 data bits — that the paper's hardware section
//! presumes under its weight buffers. Each stored word gets a parity
//! byte: seven Hamming check bits (positions 1, 2, 4, …, 64 of the
//! 72-bit codeword) plus one overall-parity bit. Decoding then
//! **corrects any single-bit error** (in data *or* parity) and
//! **detects any double-bit error** as uncorrectable:
//!
//! | syndrome | overall parity | verdict                          |
//! |----------|----------------|----------------------------------|
//! | zero     | even           | clean                            |
//! | nonzero  | odd            | single-bit error → corrected     |
//! | zero     | odd            | overall-parity bit → corrected   |
//! | nonzero  | even           | double-bit error → uncorrectable |
//!
//! [`ProtectedCodes`](crate::ProtectedCodes) wraps a whole packed code
//! buffer in this codec; the word-level API here is what its scrubber
//! and property tests exercise directly.

/// Number of parity bits per protected 64-bit word (7 Hamming check
/// bits + 1 overall-parity bit).
pub const PARITY_BITS: u32 = 8;

/// Total stored bits per protected word: 64 data + [`PARITY_BITS`].
pub const CODEWORD_BITS: u32 = 64 + PARITY_BITS;

/// Number of Hamming check bits (syndrome width).
const CHECKS: usize = 7;

/// Highest valid codeword position (positions are 1-based; 71 = 64 data
/// positions + 7 check positions).
const MAX_POS: u64 = 71;

/// Codeword positions (1-based) of the 64 data bits: every position in
/// `1..=71` that is not a power of two. Data bit `i` of the stored
/// `u64` lives at codeword position `DATA_POS[i]`.
const DATA_POS: [u8; 64] = {
    let mut arr = [0u8; 64];
    let mut pos = 1usize;
    let mut i = 0usize;
    while i < 64 {
        if pos & (pos - 1) != 0 {
            arr[i] = pos as u8;
            i += 1;
        }
        pos += 1;
    }
    arr
};

/// `CHECK_MASKS[k]` selects the data bits whose codeword position has
/// bit `k` set — check bit `k` is the even parity over that subset.
const CHECK_MASKS: [u64; CHECKS] = {
    let mut masks = [0u64; CHECKS];
    let mut i = 0usize;
    while i < 64 {
        let pos = DATA_POS[i] as usize;
        let mut k = 0usize;
        while k < CHECKS {
            if pos & (1 << k) != 0 {
                masks[k] |= 1u64 << i;
            }
            k += 1;
        }
        i += 1;
    }
    masks
};

/// Reverse map: codeword position → data bit index (`-1` for check-bit
/// positions and position 0, which does not exist).
const POS_TO_DATA: [i8; 72] = {
    let mut map = [-1i8; 72];
    let mut i = 0usize;
    while i < 64 {
        map[DATA_POS[i] as usize] = i as i8;
        i += 1;
    }
    map
};

/// The parity byte protecting `data`, by definition: check bit `k` is
/// the parity of `data & CHECK_MASKS[k]`, and bit 7 makes the overall
/// ones-count of the 72-bit codeword even. Seven masked popcounts per
/// word; it builds [`PARITY_TABLES`] at compile time and is the oracle
/// [`encode_word`] is tested against.
const fn encode_word_by_masks(data: u64) -> u8 {
    let mut parity = 0u8;
    let mut k = 0;
    while k < CHECKS {
        parity |= (((data & CHECK_MASKS[k]).count_ones() & 1) as u8) << k;
        k += 1;
    }
    let overall = (data.count_ones() + (parity as u32).count_ones()) & 1;
    parity | ((overall as u8) << 7)
}

/// `PARITY_TABLES[j][b]` is the parity byte of a word whose only
/// nonzero byte is byte `j`, equal to `b`. Every parity bit is an XOR
/// of data bits (the overall bit included: it is the data's parity XOR
/// the check bits' parity), so a word's parity byte is the XOR of its
/// eight bytes' entries.
const PARITY_TABLES: [[u8; 256]; 8] = {
    let mut t = [[0u8; 256]; 8];
    let mut j = 0;
    while j < 8 {
        let mut b = 0;
        while b < 256 {
            t[j][b] = encode_word_by_masks((b as u64) << (8 * j));
            b += 1;
        }
        j += 1;
    }
    t
};

/// Compute the parity byte protecting `data`: bits 0–6 are the Hamming
/// check bits, bit 7 makes the overall ones-count of the 72-bit
/// codeword even. Eight table lookups XORed, one per data byte: every
/// parity bit is linear in the data bits.
#[inline]
pub fn encode_word(data: u64) -> u8 {
    let b = data.to_le_bytes();
    let t = &PARITY_TABLES;
    t[0][b[0] as usize]
        ^ t[1][b[1] as usize]
        ^ t[2][b[2] as usize]
        ^ t[3][b[3] as usize]
        ^ t[4][b[4] as usize]
        ^ t[5][b[5] as usize]
        ^ t[6][b[6] as usize]
        ^ t[7][b[7] as usize]
}

/// The verdict of decoding one protected word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordDecode {
    /// No error: the stored data is trustworthy as-is.
    Clean,
    /// A single data bit was flipped; this is the corrected data word.
    CorrectedData(u64),
    /// A single parity bit was flipped (data is fine); this is the
    /// corrected parity byte.
    CorrectedParity(u8),
    /// Two or more bits flipped: detected but not correctable. The data
    /// word cannot be trusted.
    Uncorrectable,
}

/// Check `data` against its stored `parity` byte, correcting a
/// single-bit error or flagging a double-bit error (see the module
/// table for the full case analysis).
pub fn decode_word(data: u64, parity: u8) -> WordDecode {
    let expected = encode_word(data);
    // Syndrome: XOR of stored vs recomputed check bits = the codeword
    // position of a single-bit error (0 = checks agree).
    let syndrome = u64::from((parity ^ expected) & 0x7F);
    // Overall parity over all 72 stored bits; even means consistent.
    let overall_odd = (data.count_ones() + u32::from(parity).count_ones()) & 1 == 1;
    match (syndrome, overall_odd) {
        (0, false) => WordDecode::Clean,
        // Syndrome zero but overall odd: the overall-parity bit itself
        // flipped. Data and check bits are fine.
        (0, true) => WordDecode::CorrectedParity(parity ^ 0x80),
        (s, true) => {
            if s & (s - 1) == 0 {
                // Power-of-two position: a stored check bit flipped.
                WordDecode::CorrectedParity(parity ^ (1 << s.trailing_zeros()))
            } else if s <= MAX_POS {
                let i = POS_TO_DATA[s as usize];
                debug_assert!(i >= 0, "non-power-of-two position {s} must hold data");
                WordDecode::CorrectedData(data ^ (1u64 << i))
            } else {
                // Positions 72..127 do not exist in the codeword: only a
                // multi-bit error can synthesize such a syndrome.
                WordDecode::Uncorrectable
            }
        }
        // Nonzero syndrome with even overall parity: an even number of
        // bits (≥ 2) flipped — detected, not correctable.
        (_, false) => WordDecode::Uncorrectable,
    }
}

/// Cumulative ECC health counters for a protected store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Single-bit errors corrected (data or parity).
    pub corrected: u64,
    /// Double-bit (or worse) errors detected but not correctable.
    pub detected_uncorrectable: u64,
    /// Completed scrub sweeps over the store.
    pub scrub_passes: u64,
}

impl EccStats {
    /// Merge another counter set into this one (summing fields).
    pub fn absorb(&mut self, other: &EccStats) {
        self.corrected += other.corrected;
        self.detected_uncorrectable += other.detected_uncorrectable;
        self.scrub_passes += other.scrub_passes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_positions_are_the_64_non_powers_of_two() {
        assert!(DATA_POS.windows(2).all(|w| w[0] < w[1]), "sorted");
        for &p in &DATA_POS {
            let p = p as u64;
            assert!((1..=MAX_POS).contains(&p));
            assert!(p & (p - 1) != 0, "position {p} is a power of two");
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63] {
            let p = encode_word(data);
            assert_eq!(decode_word(data, p), WordDecode::Clean, "data {data:#x}");
        }
    }

    #[test]
    fn every_single_data_bit_flip_corrects() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let p = encode_word(data);
        for bit in 0..64 {
            let struck = data ^ (1u64 << bit);
            assert_eq!(
                decode_word(struck, p),
                WordDecode::CorrectedData(data),
                "data bit {bit}"
            );
        }
    }

    #[test]
    fn every_single_parity_bit_flip_corrects() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let p = encode_word(data);
        for bit in 0..PARITY_BITS {
            let struck = p ^ (1 << bit);
            assert_eq!(
                decode_word(data, struck),
                WordDecode::CorrectedParity(p),
                "parity bit {bit}"
            );
        }
    }

    #[test]
    fn every_double_bit_flip_is_detected_uncorrectable() {
        // All C(72,2) = 2556 double flips over one word.
        let data = 0x1122_3344_5566_7788u64;
        let p = encode_word(data);
        for a in 0..CODEWORD_BITS {
            for b in (a + 1)..CODEWORD_BITS {
                let (mut d, mut pp) = (data, p);
                for bit in [a, b] {
                    if bit < 64 {
                        d ^= 1u64 << bit;
                    } else {
                        pp ^= 1 << (bit - 64);
                    }
                }
                assert_eq!(
                    decode_word(d, pp),
                    WordDecode::Uncorrectable,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn table_encode_matches_the_mask_form() {
        let check = |data: u64| {
            assert_eq!(
                encode_word(data),
                encode_word_by_masks(data),
                "data {data:#018x}"
            );
        };
        check(0);
        check(u64::MAX);
        for a in 0..64 {
            check(1u64 << a);
            for b in (a + 1)..64 {
                check((1u64 << a) | (1u64 << b));
            }
        }
        let mut rng = crate::SplitMix64::new(0x5EC_DED0);
        for _ in 0..100_000 {
            check(rng.next_u64());
        }
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = EccStats {
            corrected: 1,
            detected_uncorrectable: 2,
            scrub_passes: 3,
        };
        a.absorb(&EccStats {
            corrected: 10,
            detected_uncorrectable: 20,
            scrub_passes: 30,
        });
        assert_eq!(a.corrected, 11);
        assert_eq!(a.detected_uncorrectable, 22);
        assert_eq!(a.scrub_passes, 33);
    }
}
