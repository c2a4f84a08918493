//! SEC-DED protected packed-code storage: a [`PackedCodes`] buffer with
//! an extended Hamming(72,64) parity byte per raw storage word.
//!
//! [`ProtectedCodes`] is what a serving runtime keeps its frozen weight
//! codes in: faults strike the raw storage image (data *or* parity
//! bits), a periodic [`scrub`](ProtectedCodes::scrub) repairs every
//! correctable word in place, and [`decode`](ProtectedCodes::decode)
//! reads out a corrected snapshot without waiting for the scrubber.
//! Double-bit errors are reported as uncorrectable so the owner can
//! rebuild the store from a master copy.

use crate::ecc::{decode_word, encode_word, EccStats, WordDecode, CODEWORD_BITS, PARITY_BITS};
use adaptivfloat::PackedCodes;

/// A packed code buffer protected by per-word SEC-DED parity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedCodes {
    data: PackedCodes,
    parity: Vec<u8>,
    stats: EccStats,
}

/// What one sweep (or one read-out) over a protected store found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Raw storage words examined.
    pub words_scanned: usize,
    /// Words with a single-bit error, corrected.
    pub corrected: usize,
    /// Words with a detected-uncorrectable (double-bit) error.
    pub uncorrectable: usize,
}

impl ScrubReport {
    /// Merge another report into this one (summing fields).
    pub fn absorb(&mut self, other: &ScrubReport) {
        self.words_scanned += other.words_scanned;
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
    }
}

impl ProtectedCodes {
    /// Wrap `codes` in SEC-DED protection, computing one parity byte per
    /// raw storage word.
    pub fn protect(codes: PackedCodes) -> Self {
        let parity = codes.words().iter().map(|&w| encode_word(w)).collect();
        ProtectedCodes {
            data: codes,
            parity,
            stats: EccStats::default(),
        }
    }

    /// Reassemble a protected store from its persisted image: the code
    /// buffer, its parity bytes, and the cumulative health counters.
    ///
    /// Returns `None` (never panics) if `parity` does not hold exactly
    /// one byte per raw storage word. The parity is taken as stored —
    /// not recomputed — so faults that were on disk remain visible to
    /// the next [`scrub`](Self::scrub), exactly as if the store had
    /// stayed resident.
    pub fn from_parts(data: PackedCodes, parity: Vec<u8>, stats: EccStats) -> Option<Self> {
        if parity.len() != data.words().len() {
            return None;
        }
        Some(ProtectedCodes {
            data,
            parity,
            stats,
        })
    }

    /// Code width in bits (delegates to the protected buffer).
    pub fn width(&self) -> u32 {
        self.data.width()
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of raw 64-bit storage words (each carrying its own parity
    /// byte). The protected storage image is `raw_words() ×`
    /// [`CODEWORD_BITS`] bits.
    pub fn raw_words(&self) -> usize {
        self.data.words().len()
    }

    /// The protected code buffer as stored — possibly corrupted; callers
    /// wanting trustworthy codes use [`decode`](Self::decode) or scrub
    /// first.
    pub fn codes(&self) -> &PackedCodes {
        &self.data
    }

    /// The stored parity bytes, one per raw word.
    pub fn parity(&self) -> &[u8] {
        &self.parity
    }

    /// Cumulative health counters (updated by [`scrub`](Self::scrub)).
    pub fn stats(&self) -> EccStats {
        self.stats
    }

    /// Replace the cumulative counters — used when a freshly re-encoded
    /// store carries over its predecessor's error history across a
    /// rebuild.
    pub fn with_stats(mut self, stats: EccStats) -> Self {
        self.stats = stats;
        self
    }

    /// Fold additional counters into the cumulative history in place —
    /// used when replaying journaled scrub outcomes onto a store image
    /// read back from disk.
    pub fn absorb_stats(&mut self, delta: &EccStats) {
        self.stats.absorb(delta);
    }

    /// Total bytes of protected storage: packed codes plus parity.
    pub fn storage_bytes(&self) -> usize {
        self.data.packed_bytes() + self.parity.len()
    }

    /// Read one bit of the raw storage image. Bits `0..64` address the
    /// data word, bits `64..`[`CODEWORD_BITS`] its parity byte.
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn raw_bit(&self, word: usize, bit: u32) -> bool {
        assert!(bit < CODEWORD_BITS, "bit {bit} out of codeword range");
        if bit < 64 {
            self.data.words()[word] >> bit & 1 == 1
        } else {
            self.parity[word] >> (bit - 64) & 1 == 1
        }
    }

    /// Overwrite one bit of the raw storage image (same addressing as
    /// [`raw_bit`](Self::raw_bit)) — the primitive fault injection and
    /// word-level repair share.
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn set_raw_bit(&mut self, word: usize, bit: u32, value: bool) {
        assert!(bit < CODEWORD_BITS, "bit {bit} out of codeword range");
        if bit < 64 {
            let mask = 1u64 << bit;
            let w = &mut self.data.words_mut()[word];
            *w = if value { *w | mask } else { *w & !mask };
        } else {
            let mask = 1u8 << (bit - 64);
            let p = &mut self.parity[word];
            *p = if value { *p | mask } else { *p & !mask };
        }
    }

    /// Flip one bit of the raw storage image (data or parity).
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn flip_raw_bit(&mut self, word: usize, bit: u32) {
        let old = self.raw_bit(word, bit);
        self.set_raw_bit(word, bit, !old);
    }

    /// Sweep the whole store once, repairing every correctable word in
    /// place and bumping the cumulative [`stats`](Self::stats)
    /// (including `scrub_passes`). Uncorrectable words are left as-is —
    /// the report tells the owner a rebuild is needed.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport {
            words_scanned: self.raw_words(),
            ..ScrubReport::default()
        };
        for i in 0..self.parity.len() {
            match decode_word(self.data.words()[i], self.parity[i]) {
                WordDecode::Clean => {}
                WordDecode::CorrectedData(fixed) => {
                    self.data.words_mut()[i] = fixed;
                    report.corrected += 1;
                }
                WordDecode::CorrectedParity(fixed) => {
                    self.parity[i] = fixed;
                    report.corrected += 1;
                }
                WordDecode::Uncorrectable => report.uncorrectable += 1,
            }
        }
        self.stats.corrected += report.corrected as u64;
        self.stats.detected_uncorrectable += report.uncorrectable as u64;
        self.stats.scrub_passes += 1;
        report
    }

    /// Read out a corrected snapshot of the codes without mutating the
    /// store: single-bit errors are corrected in the copy, uncorrectable
    /// words pass through raw (the report says how many). Cumulative
    /// stats are *not* touched — this is a read path, not a scrub.
    pub fn decode(&self) -> (PackedCodes, ScrubReport) {
        let mut snapshot = self.data.clone();
        let mut report = ScrubReport {
            words_scanned: self.raw_words(),
            ..ScrubReport::default()
        };
        for i in 0..self.parity.len() {
            match decode_word(snapshot.words()[i], self.parity[i]) {
                WordDecode::Clean => {}
                // A flipped parity bit doesn't change what the codes
                // decode to, but it is still a corrected error.
                WordDecode::CorrectedParity(_) => report.corrected += 1,
                WordDecode::CorrectedData(fixed) => {
                    snapshot.words_mut()[i] = fixed;
                    report.corrected += 1;
                }
                WordDecode::Uncorrectable => report.uncorrectable += 1,
            }
        }
        (snapshot, report)
    }
}

/// Parity storage overhead of the scheme, as stored bits per data bit
/// ([`PARITY_BITS`]`/64` = 12.5%).
pub fn parity_overhead() -> f64 {
    f64::from(PARITY_BITS) / 64.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(width: u32, n: usize) -> PackedCodes {
        let mut p = PackedCodes::new(width);
        for i in 0..n {
            p.push((i as u64).wrapping_mul(0x9E37_79B9));
        }
        p
    }

    #[test]
    fn protect_then_scrub_is_clean() {
        let mut prot = ProtectedCodes::protect(packed(5, 100));
        let report = prot.scrub();
        assert_eq!(report.words_scanned, prot.raw_words());
        assert_eq!((report.corrected, report.uncorrectable), (0, 0));
        assert_eq!(prot.stats().scrub_passes, 1);
    }

    #[test]
    fn single_bit_error_is_repaired_in_place() {
        let clean = packed(7, 64);
        let mut prot = ProtectedCodes::protect(clean.clone());
        prot.flip_raw_bit(2, 13);
        assert_ne!(prot.codes(), &clean, "fault must land");
        let report = prot.scrub();
        assert_eq!(report.corrected, 1);
        assert_eq!(report.uncorrectable, 0);
        assert_eq!(prot.codes(), &clean, "scrub must restore bit-identity");
        assert_eq!(prot.stats().corrected, 1);
    }

    #[test]
    fn parity_bit_error_is_repaired_without_touching_data() {
        let clean = packed(4, 32);
        let mut prot = ProtectedCodes::protect(clean.clone());
        let before = prot.parity().to_vec();
        prot.flip_raw_bit(0, 64 + 3);
        assert_ne!(prot.parity(), &before[..]);
        let report = prot.scrub();
        assert_eq!(report.corrected, 1);
        assert_eq!(prot.codes(), &clean);
        assert_eq!(prot.parity(), &before[..]);
    }

    #[test]
    fn double_bit_error_is_uncorrectable_and_left_alone() {
        let clean = packed(8, 40);
        let mut prot = ProtectedCodes::protect(clean.clone());
        prot.flip_raw_bit(1, 5);
        prot.flip_raw_bit(1, 44);
        let corrupted = prot.codes().clone();
        let report = prot.scrub();
        assert_eq!(report.corrected, 0);
        assert_eq!(report.uncorrectable, 1);
        assert_eq!(prot.codes(), &corrupted, "no miscorrection allowed");
        assert_eq!(prot.stats().detected_uncorrectable, 1);
    }

    #[test]
    fn decode_corrects_the_copy_not_the_store() {
        let clean = packed(6, 80);
        let mut prot = ProtectedCodes::protect(clean.clone());
        prot.flip_raw_bit(3, 21);
        let corrupted = prot.codes().clone();
        let (snapshot, report) = prot.decode();
        assert_eq!(snapshot, clean, "decode must return corrected codes");
        assert_eq!(report.corrected, 1);
        assert_eq!(prot.codes(), &corrupted, "store untouched by decode");
        assert_eq!(prot.stats(), EccStats::default(), "stats untouched too");
    }

    #[test]
    fn from_parts_roundtrips_faults_and_stats() {
        let mut prot = ProtectedCodes::protect(packed(7, 64));
        prot.flip_raw_bit(2, 13); // a latent fault, still unrepaired
        let stats_in = EccStats {
            corrected: 5,
            detected_uncorrectable: 1,
            scrub_passes: 3,
        };
        let rebuilt =
            ProtectedCodes::from_parts(prot.codes().clone(), prot.parity().to_vec(), stats_in)
                .unwrap();
        assert_eq!(rebuilt.codes(), prot.codes());
        assert_eq!(rebuilt.parity(), prot.parity());
        assert_eq!(rebuilt.stats(), stats_in);
        // The latent fault survived the roundtrip and scrubs out.
        let mut rebuilt = rebuilt;
        let report = rebuilt.scrub();
        assert_eq!(report.corrected, 1);
        // Parity length mismatch is a typed rejection, not a panic.
        assert!(
            ProtectedCodes::from_parts(packed(7, 64), vec![0u8; 3], EccStats::default()).is_none()
        );
    }

    #[test]
    fn storage_accounting() {
        let prot = ProtectedCodes::protect(packed(4, 128)); // 512 bits → 8 words
        assert_eq!(prot.raw_words(), 8);
        assert_eq!(prot.parity().len(), 8);
        assert_eq!(prot.storage_bytes(), 8 * 8 + 8);
        assert!((parity_overhead() - 0.125).abs() < 1e-12);
    }
}
