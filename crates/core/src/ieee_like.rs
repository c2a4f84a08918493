//! A non-adaptive IEEE-754-style miniature float `<n, e>` with subnormals.
//!
//! This is the "Float" column of the paper's tables: a fixed exponent bias
//! `2^(e−1) − 1`, subnormal numbers at the bottom of the range, and — as is
//! customary in DNN quantization studies — **no Inf/NaN encodings**: the
//! all-ones exponent field is an ordinary top binade and out-of-range
//! values saturate.

use std::sync::Arc;

use crate::decode::{DecodePolicy, DecodeStats};
use crate::error::FormatError;
use crate::format::NumberFormat;
use crate::lut::{self, LutKey, LutQuantizer};
use crate::util::{exp2, floor_log2};

/// IEEE-like float format descriptor.
///
/// # Examples
///
/// ```
/// use adaptivfloat::{IeeeLikeFloat, NumberFormat};
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// let fmt = IeeeLikeFloat::new(8, 4)?;
/// // 1.0 is exactly representable in any float format.
/// assert_eq!(fmt.quantize_slice(&[1.0])[0], 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IeeeLikeFloat {
    n: u32,
    e: u32,
}

impl IeeeLikeFloat {
    /// Create an IEEE-like `<n, e>` float.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] unless `1 ≤ e ≤ n − 1` and
    /// `2 ≤ n ≤ 32`.
    pub fn new(n: u32, e: u32) -> Result<Self, FormatError> {
        if !(2..=32).contains(&n) {
            return Err(FormatError::InvalidBits {
                n,
                e,
                reason: "word size must be between 2 and 32 bits",
            });
        }
        if e == 0 || e > n - 1 {
            return Err(FormatError::InvalidBits {
                n,
                e,
                reason: "need 1 <= e <= n - 1 (sign bit plus exponent field)",
            });
        }
        Ok(IeeeLikeFloat { n, e })
    }

    /// Word size in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Exponent field width in bits.
    pub fn e(&self) -> u32 {
        self.e
    }

    /// Mantissa field width, `n − e − 1`.
    pub fn mantissa_bits(&self) -> u32 {
        self.n - self.e - 1
    }

    /// The fixed IEEE exponent bias, `2^(e−1) − 1`.
    pub fn bias(&self) -> i32 {
        (1i32 << (self.e - 1)) - 1
    }

    /// Largest representable magnitude: `2^(emax) · (2 − 2^−m)` where
    /// `emax = (2^e − 1) − bias` (no Inf encoding — the top binade is
    /// ordinary).
    pub fn value_max(&self) -> f64 {
        let m = self.mantissa_bits();
        let emax = ((1i32 << self.e) - 1) - self.bias();
        exp2(emax) * (2.0 - exp2(-(m as i32)))
    }

    /// Smallest positive *subnormal* magnitude: `2^(1−bias) · 2^−m`.
    pub fn value_min_subnormal(&self) -> f64 {
        let m = self.mantissa_bits();
        exp2(1 - self.bias() - m as i32)
    }

    /// Quantize one value with round-to-nearest (ties away from zero),
    /// saturating at [`value_max`](Self::value_max). NaN maps to `0.0`;
    /// a zero result keeps the sign of `v` (`-0.0` stays `-0.0`, and a
    /// tiny negative flushes to `-0.0`).
    pub fn quantize_value(&self, v: f32) -> f32 {
        if v.is_nan() {
            return 0.0;
        }
        let sign = if v.is_sign_negative() { -1.0f64 } else { 1.0 };
        let a = v.abs() as f64;
        if a == 0.0 {
            return v;
        }
        let vmax = self.value_max();
        if a >= vmax {
            return (sign * vmax) as f32;
        }
        let m = self.mantissa_bits();
        let min_normal_exp = 1 - self.bias();
        let exp = floor_log2(a);
        if exp < min_normal_exp {
            // Subnormal region: a fixed grid with step 2^(min_exp − m).
            let step = exp2(min_normal_exp - m as i32);
            let q = (a / step).round() * step;
            return (sign * q) as f32;
        }
        let scale = exp2(m as i32);
        let mant = a / exp2(exp);
        let mut q = (mant * scale).round() / scale;
        let mut exp = exp;
        if q >= 2.0 {
            exp += 1;
            q = 1.0;
        }
        let emax = ((1i32 << self.e) - 1) - self.bias();
        if exp > emax {
            return (sign * vmax) as f32;
        }
        (sign * exp2(exp) * q) as f32
    }

    /// Encode a value to its `n`-bit pattern (quantizing first). A
    /// `-0.0` result keeps its sign bit, so `decode(encode(v))` has the
    /// bits of `quantize_value(v)`.
    pub fn encode(&self, v: f32) -> u32 {
        let q = self.quantize_value(v);
        let m = self.mantissa_bits();
        let sign_bit = u32::from(q.is_sign_negative());
        if q == 0.0 {
            return sign_bit << (self.n - 1);
        }
        let a = q.abs() as f64;
        let min_normal_exp = 1 - self.bias();
        let exp = floor_log2(a);
        let (exp_field, mant_field) = if exp < min_normal_exp {
            // Subnormal: exponent field 0, mantissa is the step count.
            let step = exp2(min_normal_exp - m as i32);
            (0u32, (a / step).round() as u32)
        } else {
            let mant = a / exp2(exp);
            (
                (exp + self.bias()) as u32,
                ((mant - 1.0) * exp2(m as i32)).round() as u32,
            )
        };
        (sign_bit << (self.n - 1)) | (exp_field << m) | mant_field
    }

    /// The format's direct-index codebook (`None` above 8 bits).
    pub(crate) fn codebook(&self) -> Option<Arc<LutQuantizer>> {
        let key = LutKey::Ieee {
            n: self.n,
            e: self.e,
        };
        lut::codebook(key, self.n, |v| (self.quantize_value(v), self.encode(v)))
    }

    /// Decode an `n`-bit pattern.
    pub fn decode(&self, bits: u32) -> f32 {
        let m = self.mantissa_bits();
        let sign_bit = (bits >> (self.n - 1)) & 1;
        let exp_field = (bits >> m) & ((1 << self.e) - 1);
        let mant_field = bits & ((1u32 << m) - 1);
        let sign = if sign_bit == 1 { -1.0f64 } else { 1.0 };
        let v = if exp_field == 0 {
            // Subnormal (or zero when the mantissa is also zero).
            exp2(1 - self.bias() - m as i32) * mant_field as f64
        } else {
            let exp = exp_field as i32 - self.bias();
            exp2(exp) * (1.0 + mant_field as f64 / exp2(m as i32))
        };
        (sign * v) as f32
    }

    /// Decode an `n`-bit pattern under a [`DecodePolicy`].
    ///
    /// Every bit pattern of this format decodes to a finite in-range
    /// value (there are no Inf/NaN encodings), so hardening never alters
    /// the value — but the decode is still counted in `stats`, keeping
    /// campaign denominators comparable across formats.
    pub fn decode_with_policy(
        &self,
        bits: u32,
        policy: DecodePolicy,
        stats: &mut DecodeStats,
    ) -> f32 {
        let v = self.decode(bits);
        stats.guard(policy, self.value_max() as f32, v)
    }

    /// Enumerate all representable values, sorted ascending (±0 collapse).
    pub fn representable_values(&self) -> Vec<f32> {
        let mut vals: Vec<f32> = (0u32..(1 << self.n))
            .map(|code| self.decode(code))
            .map(|v| if v == 0.0 { 0.0 } else { v })
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        vals.dedup();
        vals
    }
}

impl NumberFormat for IeeeLikeFloat {
    fn name(&self) -> String {
        format!("Float<{},{}>", self.n, self.e)
    }

    fn bits(&self) -> u32 {
        self.n
    }

    fn plan(&self, stats: &crate::plan::QuantStats) -> crate::plan::QuantPlan {
        use crate::plan::{Backend, PlanParams, QuantPlan};
        // The grid is static per geometry: one codebook, process-wide.
        let table = (stats.len() >= crate::lut::MIN_LUT_LEN)
            .then(|| self.codebook())
            .flatten();
        let backend = table.map_or(Backend::IeeeScalar(*self), Backend::Lut);
        QuantPlan::new(self.n, PlanParams::Static, backend)
    }

    fn is_adaptive(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp8_e4m3_like_extremes() {
        // <8,4>: bias 7, emax = 15 − 7 = 8, vmax = 2^8 · (2 − 2^−3) = 480.
        let fmt = IeeeLikeFloat::new(8, 4).unwrap();
        assert_eq!(fmt.bias(), 7);
        assert_eq!(fmt.value_max(), 480.0);
        // Smallest subnormal: 2^(1−7−3) = 2^−9.
        assert_eq!(fmt.value_min_subnormal(), exp2(-9));
    }

    #[test]
    fn subnormals_are_representable() {
        let fmt = IeeeLikeFloat::new(8, 4).unwrap();
        let sub = exp2(-9) as f32; // smallest subnormal
        assert_eq!(fmt.quantize_value(sub), sub);
        assert_eq!(fmt.quantize_value(sub * 3.0), sub * 3.0);
        // Half the smallest subnormal rounds to... its nearest grid point.
        let half = sub * 0.5;
        let q = fmt.quantize_value(half);
        assert!(q == 0.0 || q == sub);
    }

    #[test]
    fn saturates_no_infinity() {
        let fmt = IeeeLikeFloat::new(8, 4).unwrap();
        assert_eq!(fmt.quantize_value(1e10), 480.0);
        assert_eq!(fmt.quantize_value(f32::INFINITY), 480.0);
        assert_eq!(fmt.quantize_value(f32::NEG_INFINITY), -480.0);
        assert_eq!(fmt.quantize_value(f32::NAN), 0.0);
    }

    #[test]
    fn roundtrip_all_codes() {
        for (n, e) in [(4, 3), (6, 3), (8, 4), (8, 3), (7, 4)] {
            let fmt = IeeeLikeFloat::new(n, e).unwrap();
            for code in 0..(1u32 << n) {
                let v = fmt.decode(code);
                let q = fmt.quantize_value(v);
                assert_eq!(q, v, "n={n} e={e} code={code:#x} not a fixed point");
                let re = fmt.encode(v);
                assert_eq!(fmt.decode(re), v, "n={n} e={e} code={code:#x}");
            }
        }
    }

    #[test]
    fn decode_of_encode_has_the_bits_of_quantize() {
        // Tiny negatives flush to -0.0; the code must keep that sign.
        for (n, e) in [(4, 3), (6, 3), (8, 4), (8, 3)] {
            let fmt = IeeeLikeFloat::new(n, e).unwrap();
            let sub = fmt.value_min_subnormal() as f32;
            let mut sweep = vec![0.0f32, -0.0, sub * 0.25, -sub * 0.25, -sub * 0.5, -1e-30];
            let mut x = -40.0f32;
            while x < 40.0 {
                sweep.push(x);
                sweep.push(x * 1e-4);
                x += 0.0731;
            }
            for v in sweep {
                let q = fmt.quantize_value(v);
                assert_eq!(
                    fmt.decode(fmt.encode(v)).to_bits(),
                    q.to_bits(),
                    "n={n} e={e} v={v:e}"
                );
                // Quantized values are fixed points, bit for bit.
                assert_eq!(
                    fmt.quantize_value(q).to_bits(),
                    q.to_bits(),
                    "n={n} e={e} v={v:e}"
                );
            }
        }
    }

    #[test]
    fn representable_count() {
        // 2^n codes, ±0 collapse → 2^n − 1 distinct values.
        let fmt = IeeeLikeFloat::new(6, 3).unwrap();
        assert_eq!(fmt.representable_values().len(), 63);
    }

    #[test]
    fn quantization_is_nearest() {
        let fmt = IeeeLikeFloat::new(6, 3).unwrap();
        let grid = fmt.representable_values();
        let mut x = -9.0f32;
        while x < 9.0 {
            let q = fmt.quantize_value(x);
            let best = grid
                .iter()
                .map(|&g| (x - g).abs())
                .fold(f32::INFINITY, f32::min);
            assert!(
                (x - q).abs() <= best * (1.0 + 1e-6) + 1e-9,
                "x={x} q={q} best={best}"
            );
            x += 0.0137;
        }
    }

    #[test]
    fn fixed_range_is_static() {
        // The motivating contrast with AdaptivFloat: the range is fixed by
        // the geometry alone. <8,3> tops out at 2^4·(2−2^−4) = 31 no
        // matter the data, and narrow-range data wastes the top binades.
        let fmt = IeeeLikeFloat::new(8, 3).unwrap();
        assert_eq!(fmt.value_max(), 31.0);
        assert_eq!(fmt.quantize_value(20.41), 20.0);
        // A 6-bit variant (vmax = 2^4·1.75 = 28) clamps 30.0.
        let small = IeeeLikeFloat::new(6, 3).unwrap();
        assert_eq!(small.quantize_value(30.0), small.value_max() as f32);
    }

    #[test]
    fn geometry_validation() {
        assert!(IeeeLikeFloat::new(8, 0).is_err());
        assert!(IeeeLikeFloat::new(8, 8).is_err());
        assert!(IeeeLikeFloat::new(1, 1).is_err());
    }
}
