//! Exact code tables for narrow codecs: encode through the codec's
//! direct-index codebook, decode by table.
//!
//! A codec at `n ≤ 8` bits has at most 256 codes, and once its
//! per-tensor parameters are frozen (AdaptivFloat's `exp_bias`, a
//! uniform scale, ...) every value it can produce is one of their
//! decodes. [`CodeIndex`] enumerates them once through the codec's
//! scalar decoder, into a 2^n table with per-code [`DecodeStats`], next
//! to the codec's cached [`LutQuantizer`], whose one lookup gives any
//! value the code the scalar encoder would.

use std::sync::Arc;

use crate::decode::{DecodePolicy, DecodeStats};
use crate::lut::LutQuantizer;

/// Widest word a [`CodeIndex`] enumerates (a 256-entry decode table).
const MAX_INDEX_BITS: u32 = 8;

/// Per-code decode table for one [`DecodePolicy`]: the decoded value
/// and the counters that one decode adds.
type DecodeTable = Vec<(f32, DecodeStats)>;

/// The value → code codebook and code → value tables of one frozen
/// codec.
#[derive(Debug, Clone)]
pub struct CodeIndex {
    /// The codec's codebook: any value's code in one lookup.
    codebook: Arc<LutQuantizer>,
    /// Decodes under [`DecodePolicy::Raw`], indexed by code.
    raw: DecodeTable,
    /// Decodes under [`DecodePolicy::Harden`], indexed by code.
    harden: DecodeTable,
}

impl CodeIndex {
    /// Enumerate an `n`-bit codec's policy-aware `decode` next to its
    /// `codebook`. Returns `None` when `n` exceeds 8 bits.
    pub fn build(
        n: u32,
        codebook: Arc<LutQuantizer>,
        decode: impl Fn(u32, DecodePolicy, &mut DecodeStats) -> f32,
    ) -> Option<CodeIndex> {
        if n == 0 || n > MAX_INDEX_BITS {
            return None;
        }
        let table = |policy| -> DecodeTable {
            (0..1u32 << n)
                .map(|code| {
                    let mut stats = DecodeStats::new();
                    (decode(code, policy, &mut stats), stats)
                })
                .collect()
        };
        Some(CodeIndex {
            codebook,
            raw: table(DecodePolicy::Raw),
            harden: table(DecodePolicy::Harden),
        })
    }

    /// The code the scalar encoder returns for `v`, if `v` is a nonzero
    /// finite value that code decodes to (a value on the codec's grid);
    /// `None` otherwise.
    pub fn lookup(&self, v: f32) -> Option<u32> {
        let code = self.codebook.encode_one(v);
        let on_grid = v.is_finite() && v != 0.0 && self.raw[code as usize].0 == v;
        on_grid.then_some(code)
    }

    /// The decoded value of every code under `policy`, indexed by code.
    pub fn values(&self, policy: DecodePolicy) -> Vec<f32> {
        self.table(policy).iter().map(|&(v, _)| v).collect()
    }

    /// Decode `codes` under `policy`: the values, and the counters a
    /// per-code decode would have accumulated.
    ///
    /// # Panics
    ///
    /// Panics if a code is wider than the codec's word.
    pub fn decode(&self, codes: &[u32], policy: DecodePolicy) -> (Vec<f32>, DecodeStats) {
        let table = self.table(policy);
        let mut hits = [0u64; 1 << MAX_INDEX_BITS];
        let values = codes
            .iter()
            .map(|&c| {
                hits[c as usize] += 1;
                table[c as usize].0
            })
            .collect();
        let mut stats = DecodeStats::new();
        for (&(_, per), &h) in table.iter().zip(&hits) {
            stats.decoded += h * per.decoded;
            stats.nonfinite += h * per.nonfinite;
            stats.out_of_range += h * per.out_of_range;
        }
        (values, stats)
    }

    fn table(&self, policy: DecodePolicy) -> &DecodeTable {
        match policy {
            DecodePolicy::Raw => &self.raw,
            DecodePolicy::Harden => &self.harden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FormatKind, StorageCodec, Uniform};

    #[test]
    fn lookup_answers_exactly_the_grid_values_the_encoder_returns() {
        let data: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin() * 2.3).collect();
        for kind in FormatKind::ALL {
            for n in [4u32, 8] {
                let codec = StorageCodec::fit(kind, n, &data).unwrap();
                let ix = codec.index().expect("narrow codecs have an index");
                for code in 0..1u32 << n {
                    let v = ix.values(DecodePolicy::Raw)[code as usize];
                    let want = v.is_finite() && v != 0.0 && codec.encode_one(v) == code;
                    assert_eq!(ix.lookup(v) == Some(code), want, "{kind} n={n} {code:#x}");
                }
                for v in [0.0f32, -0.0, f32::NAN, f32::INFINITY, 1e-30] {
                    assert_eq!(ix.lookup(v), None, "{kind} n={n} {v}");
                }
            }
        }
    }

    #[test]
    fn decode_counts_like_per_code_decodes() {
        let uni = Uniform::new(8).unwrap();
        let scale = 0.01;
        let dec = |c, pol, s: &mut DecodeStats| uni.decode_code_with_policy(scale, c, pol, s);
        let ix = CodeIndex::build(8, uni.codebook(scale).unwrap(), dec).unwrap();
        let codes = [0x80u32, 0x01, 0x7F, 0x80, 0x00];
        for policy in [DecodePolicy::Raw, DecodePolicy::Harden] {
            let mut want_stats = DecodeStats::new();
            let want: Vec<u32> = codes
                .iter()
                .map(|&c| dec(c, policy, &mut want_stats).to_bits())
                .collect();
            let (got, stats) = ix.decode(&codes, policy);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{policy}");
            assert_eq!(stats, want_stats, "{policy}");
        }
    }

    #[test]
    fn wide_words_get_no_index() {
        let uni = Uniform::new(8).unwrap();
        let wide = CodeIndex::build(9, uni.codebook(1.0).unwrap(), |c, pol, s| {
            s.guard(pol, 1e9, c as f32)
        });
        assert!(wide.is_none());
    }
}
