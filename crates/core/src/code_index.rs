//! Exact code index for narrow codecs: encode by lookup, decode by
//! table.
//!
//! A codec at `n ≤ 8` bits has at most 256 codes, and once its
//! per-tensor parameters are frozen (AdaptivFloat's `exp_bias`, a
//! uniform scale, ...) every value it can produce is one of their
//! decodes. [`CodeIndex`] enumerates them once through the codec's own
//! scalar encoder and decoder, so a tensor already rounded onto the
//! codec's grid is encoded by one hashed lookup per value instead of
//! re-deriving every code through the f64 scalar encoder, and a code
//! buffer decodes through a 2^n table with per-code [`DecodeStats`].
//!
//! The index is exact by construction: it is an open-addressed table
//! keyed by the value's f32 bits, and every probe compares all 32 bits,
//! so a lookup answers only for a nonzero finite value that exactly one
//! code decodes to, and only if the scalar encoder maps that value back
//! to that code. Everything else (zeros, whose sign picks the code;
//! non-finite values; values off the grid) misses, and the caller
//! encodes it through the scalar encoder. A codec whose nonzero values
//! are not all distinct gets no index at all.

use crate::decode::{DecodePolicy, DecodeStats};

/// Widest word a [`CodeIndex`] enumerates (a 256-entry decode table).
const MAX_INDEX_BITS: u32 = 8;

/// Per-code decode table for one [`DecodePolicy`]: the decoded value
/// and the counters that one decode adds.
type DecodeTable = Vec<(f32, DecodeStats)>;

/// The value → code index and code → value tables of one frozen codec.
#[derive(Debug, Clone)]
pub struct CodeIndex {
    /// Open-addressed `(value bits, code)` table, linear probing, at
    /// most half full. It holds every nonzero finite raw decode value
    /// whose code the scalar encoder returns for that value; bits `0`
    /// (`+0.0`, never a key) mark an empty slot.
    slots: Vec<(u32, u32)>,
    /// `32 − log2(slots.len())`: [`slot`](Self::slot) keeps the top
    /// bits of the hash.
    shift: u32,
    /// Decodes under [`DecodePolicy::Raw`], indexed by code.
    raw: DecodeTable,
    /// Decodes under [`DecodePolicy::Harden`], indexed by code.
    harden: DecodeTable,
}

impl CodeIndex {
    /// Enumerate an `n`-bit codec through its scalar `encode` and
    /// policy-aware `decode`. Returns `None` when `n` exceeds 8 bits or
    /// two codes decode to the same nonzero finite value (a lookup could
    /// not tell which one the encoder means).
    pub fn build(
        n: u32,
        encode: impl Fn(f32) -> u32,
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
        let raw = table(DecodePolicy::Raw);
        let harden = table(DecodePolicy::Harden);
        let mut by_value: Vec<(u32, u32)> = raw
            .iter()
            .zip(0u32..)
            .filter(|((v, _), _)| v.is_finite() && *v != 0.0)
            .map(|((v, _), code)| (v.to_bits(), code))
            .collect();
        by_value.sort_unstable();
        if by_value.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        // A code the encoder would not pick for its own value (e.g. a
        // two's-complement extreme outside the symmetric range) must
        // miss, so the scalar encoder answers for it.
        by_value.retain(|&(bits, code)| encode(f32::from_bits(bits)) == code);
        let len = (2 * by_value.len()).next_power_of_two().max(16);
        let mut index = CodeIndex {
            slots: vec![(0, 0); len],
            shift: 32 - len.trailing_zeros(),
            raw,
            harden,
        };
        let mask = len - 1;
        for (bits, code) in by_value {
            let mut i = index.slot(bits);
            while index.slots[i].0 != 0 {
                i = (i + 1) & mask;
            }
            index.slots[i] = (bits, code);
        }
        Some(index)
    }

    /// Home slot of `bits`: fold the sign, exponent and top mantissa
    /// bits (where grid values differ) into the low half, then keep the
    /// top bits of a Fibonacci multiply.
    #[inline]
    fn slot(&self, bits: u32) -> usize {
        ((bits ^ (bits >> 16)).wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The code the scalar encoder returns for `v`, if `v` is a nonzero
    /// finite value on the codec's grid; `None` otherwise.
    #[inline]
    pub fn lookup(&self, v: f32) -> Option<u32> {
        let bits = v.to_bits();
        let mask = self.slots.len() - 1;
        let mut i = self.slot(bits);
        loop {
            let (key, code) = self.slots[i];
            if key == bits {
                // `+0.0` meets the first empty slot on its run.
                return (key != 0).then_some(code);
            }
            if key == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Encode a tensor whose elementwise rounding onto the codec's grid
    /// is already known: `rounded[i]` is `raw[i]` quantized under the
    /// codec's frozen parameters. Each rounded value is looked up; a
    /// miss (zero, non-finite, or off-grid) encodes `raw[i]` through
    /// `encode`, the scalar encoder the index was built from, which is
    /// asked once per call for a raw `+0.0` and once for a raw `-0.0`.
    /// Equals `raw.map(encode)` whenever the rounding agrees with the
    /// scalar encoder's own.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn encode(&self, raw: &[f32], rounded: &[f32], encode: impl Fn(f32) -> u32) -> Vec<u32> {
        assert_eq!(raw.len(), rounded.len(), "slice length mismatch");
        let zeros = [encode(0.0), encode(-0.0)];
        raw.iter()
            .zip(rounded)
            .map(|(&r, &q)| {
                self.lookup(q).unwrap_or_else(|| match r.to_bits() {
                    0 => zeros[0],
                    0x8000_0000 => zeros[1],
                    _ => encode(r),
                })
            })
            .collect()
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
    use crate::{AdaptivFloat, AdaptivParams, Uniform};

    fn adaptiv(n: u32, exp_bias: i32) -> (AdaptivFloat, AdaptivParams) {
        let fmt = AdaptivFloat::new(n, 3.min(n - 1)).unwrap();
        let params = AdaptivParams {
            n,
            e: fmt.e(),
            exp_bias,
        };
        (fmt, params)
    }

    /// Lookup answers a nonzero grid value's own code exactly when the
    /// scalar encoder returns that code for it, and misses otherwise;
    /// `encode` of the whole grid equals the scalar encoding of it.
    fn check_grid(
        n: u32,
        encode: impl Fn(f32) -> u32,
        decode: impl Fn(u32) -> f32,
        ix: &CodeIndex,
    ) {
        let grid: Vec<f32> = (0..1u32 << n).map(&decode).collect();
        for (code, &v) in (0u32..).zip(&grid) {
            let want = (v != 0.0 && encode(v) == code).then_some(code);
            assert_eq!(ix.lookup(v), want, "n={n} code {code:#x} value {v}");
        }
        let want: Vec<u32> = grid.iter().map(|&v| encode(v)).collect();
        assert_eq!(ix.encode(&grid, &grid, &encode), want, "n={n}");
    }

    #[test]
    fn lookup_matches_the_scalar_encoder_on_every_grid_value() {
        for n in [4u32, 6, 8] {
            for exp_bias in -12..=4 {
                let (fmt, p) = adaptiv(n, exp_bias);
                let ix = CodeIndex::build(
                    n,
                    |v| fmt.encode_with(&p, v),
                    |c, pol, s| fmt.decode_with_policy(&p, c, pol, s),
                )
                .expect("AdaptivFloat nonzero values are distinct");
                let encode = |v| fmt.encode_with(&p, v);
                check_grid(n, encode, |c| fmt.decode_with(&p, c), &ix);
                // Zeros, non-finite and off-grid values always miss.
                for v in [0.0f32, -0.0, f32::NAN, f32::INFINITY, 1e-30, 0.3] {
                    let on_grid = (0..1u32 << n).any(|c| fmt.decode_with(&p, c) == v && v != 0.0);
                    if !on_grid {
                        assert_eq!(ix.lookup(v), None, "n={n} bias {exp_bias} {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_lookup_matches_the_scalar_encoder_across_scales() {
        for n in [4u32, 8] {
            let uni = Uniform::new(n).unwrap();
            for scale in [1e-6, 3.1e-4, 0.01, 0.0173, 0.5, 1.0, 7.3, 1e3] {
                let encode = |v| uni.encode_code(scale, v);
                let ix = CodeIndex::build(n, encode, |c, pol, s| {
                    uni.decode_code_with_policy(scale, c, pol, s)
                })
                .expect("uniform levels are distinct");
                check_grid(n, encode, |c| uni.decode_code(scale, c), &ix);
            }
        }
    }

    #[test]
    fn colliding_values_all_resolve_exactly() {
        // Values whose hashes share their top 9 bits share a home slot
        // in every table of up to 512 slots, so each lookup walks one
        // long probe run and must still compare every bit.
        let home = |b: u32| (b ^ (b >> 16)).wrapping_mul(0x9E37_79B9) >> 23;
        let target = home(1.0f32.to_bits());
        let colliding: Vec<f32> = (0..1u32 << 20)
            .map(|i| f32::from_bits(1.0f32.to_bits() + i))
            .filter(|v| home(v.to_bits()) == target)
            .take(101)
            .collect();
        assert_eq!(colliding.len(), 101);
        // 100 codes decode to the colliding values; the 101st stays out
        // of the index and must miss; the remaining codes decode to 0.
        let (held, outside) = colliding.split_at(100);
        let decode = |c: u32| held.get(c as usize).copied().unwrap_or(0.0);
        let encode = |v: f32| held.iter().position(|&h| h == v).unwrap_or(255) as u32;
        let ix = CodeIndex::build(8, encode, |c, pol, s| s.guard(pol, 1e9, decode(c))).unwrap();
        check_grid(8, encode, decode, &ix);
        assert_eq!(ix.lookup(outside[0]), None);
        // A neighbour one ulp off every held value misses too.
        for &v in held {
            let off = f32::from_bits(v.to_bits() ^ 1);
            assert_eq!(ix.lookup(off), held.contains(&off).then(|| encode(off)));
        }
    }

    #[test]
    fn raw_zeros_are_encoded_once_and_tiny_raws_reach_the_scalar_encoder() {
        use std::cell::Cell;
        let (fmt, p) = adaptiv(8, -4);
        let calls = Cell::new(0usize);
        let encode = |v| {
            calls.set(calls.get() + 1);
            fmt.encode_with(&p, v)
        };
        let ix =
            CodeIndex::build(8, encode, |c, pol, s| fmt.decode_with_policy(&p, c, pol, s)).unwrap();
        // Raw ±0.0 repeat; tiny raws round to zero but are not zeros.
        let tiny = [1e-30f32, -1e-30, 1e-9, -f32::MIN_POSITIVE];
        let mut raw = [0.0f32, -0.0].repeat(50);
        raw.extend(tiny);
        let rounded: Vec<f32> = raw.iter().map(|&v| fmt.quantize_with(&p, v)).collect();
        assert!(rounded.iter().all(|&q| q == 0.0));
        let want: Vec<u32> = raw.iter().map(|&v| fmt.encode_with(&p, v)).collect();
        calls.set(0);
        assert_eq!(ix.encode(&raw, &rounded, encode), want);
        // One call per zero sign, one per tiny raw value.
        assert_eq!(calls.get(), 2 + tiny.len());
    }

    #[test]
    fn off_symmetric_extreme_misses() {
        // Uniform's −2^(n−1) level decodes to a distinct value the
        // encoder never returns: it must miss, not map to code 0x80.
        let uni = Uniform::new(8).unwrap();
        let scale = 0.01;
        let ix = CodeIndex::build(
            8,
            |v| uni.encode_code(scale, v),
            |c, pol, s| uni.decode_code_with_policy(scale, c, pol, s),
        )
        .unwrap();
        let extreme = uni.decode_code(scale, 0x80);
        assert_eq!(ix.lookup(extreme), None);
        let codes = ix.encode(&[extreme], &[extreme], |v| uni.encode_code(scale, v));
        assert_eq!(codes, vec![uni.encode_code(scale, extreme)]);
    }

    #[test]
    fn decode_counts_like_per_code_decodes() {
        let uni = Uniform::new(8).unwrap();
        let scale = 0.01;
        let dec = |c, pol, s: &mut DecodeStats| uni.decode_code_with_policy(scale, c, pol, s);
        let ix = CodeIndex::build(8, |v| uni.encode_code(scale, v), dec).unwrap();
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
    fn duplicate_nonzero_values_or_wide_words_get_no_index() {
        let dup = CodeIndex::build(4, |_| 0, |c, pol, s| s.guard(pol, 8.0, (c / 2) as f32));
        assert!(dup.is_none(), "two codes per value must refuse the index");
        let wide = CodeIndex::build(9, |_| 0, |c, pol, s| s.guard(pol, 1e9, c as f32));
        assert!(wide.is_none());
    }
}
