//! Classic Qi.f fixed-point — the conventional hardware baseline the
//! paper's introduction argues against at low precision.

use std::sync::Arc;

use crate::decode::{DecodePolicy, DecodeStats};
use crate::error::FormatError;
use crate::format::NumberFormat;
use crate::lut::{self, LutKey, LutQuantizer};
use crate::util::{exp2, from_twos_complement, to_twos_complement};

/// Fixed-point format with `n` total bits: 1 sign bit, `i` integer bits
/// and `f = n − 1 − i` fractional bits, two's-complement, saturating.
///
/// # Examples
///
/// ```
/// use adaptivfloat::{FixedPoint, NumberFormat};
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// // Q2.5 in an 8-bit word.
/// let fmt = FixedPoint::new(8, 2)?;
/// assert_eq!(fmt.quantize_slice(&[1.5])[0], 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPoint {
    n: u32,
    int_bits: u32,
}

impl FixedPoint {
    /// Create an `n`-bit fixed-point format with `int_bits` integer bits.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] unless `2 ≤ n ≤ 32` and
    /// `int_bits ≤ n − 1`.
    pub fn new(n: u32, int_bits: u32) -> Result<Self, FormatError> {
        if !(2..=32).contains(&n) {
            return Err(FormatError::InvalidBits {
                n,
                e: int_bits,
                reason: "fixed-point word size must be between 2 and 32 bits",
            });
        }
        if int_bits > n - 1 {
            return Err(FormatError::InvalidBits {
                n,
                e: int_bits,
                reason: "integer bits must leave room for the sign bit",
            });
        }
        Ok(FixedPoint { n, int_bits })
    }

    /// Word size in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Integer bits (excluding sign).
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Fractional bits, `n − 1 − int_bits`.
    pub fn frac_bits(&self) -> u32 {
        self.n - 1 - self.int_bits
    }

    /// The quantization step, `2^−f`.
    pub fn step(&self) -> f64 {
        exp2(-(self.frac_bits() as i32))
    }

    /// Largest representable value, `2^i − 2^−f`.
    pub fn value_max(&self) -> f64 {
        exp2(self.int_bits as i32) - self.step()
    }

    /// Quantize one value (round to nearest step, saturate symmetrically).
    /// NaN maps to `0.0`.
    pub fn quantize_value(&self, v: f32) -> f32 {
        if v.is_nan() {
            return 0.0;
        }
        let step = self.step();
        let vmax = self.value_max();
        let q = ((v as f64) / step).round() * step;
        (q.clamp(-vmax, vmax)) as f32
    }

    /// Largest step count, `2^(n−1) − 1` (symmetric saturation).
    fn level_max(&self) -> i64 {
        (1i64 << (self.n - 1)) - 1
    }

    /// Encode one value as an `n`-bit two's-complement step-count word
    /// (quantizing first).
    pub fn encode(&self, v: f32) -> u32 {
        if v.is_nan() {
            return 0;
        }
        let q = ((v as f64) / self.step()).round() as i64;
        to_twos_complement(q.clamp(-self.level_max(), self.level_max()), self.n)
    }

    /// The format's direct-index codebook (`None` above 8 bits).
    fn codebook(&self) -> Option<Arc<LutQuantizer>> {
        let key = LutKey::Fixed {
            n: self.n,
            int_bits: self.int_bits,
        };
        lut::codebook(key, self.n, |v| (self.quantize_value(v), self.encode(v)))
    }

    /// Decode an `n`-bit word exactly as the bits say (a corrupted word
    /// may decode to the unused `−2^(n−1)` extreme).
    pub fn decode(&self, code: u32) -> f32 {
        (from_twos_complement(code, self.n) as f64 * self.step()) as f32
    }

    /// Decode an `n`-bit word under a [`DecodePolicy`]: hardened decodes
    /// clamp magnitudes beyond [`value_max`](Self::value_max) back to it
    /// (counted in `stats`); valid symmetric codes pass through.
    pub fn decode_with_policy(
        &self,
        code: u32,
        policy: DecodePolicy,
        stats: &mut DecodeStats,
    ) -> f32 {
        let v = self.decode(code);
        stats.guard(policy, self.value_max() as f32, v)
    }
}

impl NumberFormat for FixedPoint {
    fn name(&self) -> String {
        format!("Fixed<Q{}.{}>", self.int_bits, self.frac_bits())
    }

    fn bits(&self) -> u32 {
        self.n
    }

    fn plan(&self, stats: &crate::plan::QuantStats) -> crate::plan::QuantPlan {
        use crate::plan::{Backend, PlanParams, QuantPlan};
        let table = (stats.len() >= lut::MIN_LUT_LEN)
            .then(|| self.codebook())
            .flatten();
        let backend = table.map_or(Backend::FixedScalar(*self), Backend::Lut);
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
    fn q2_5_geometry() {
        let fmt = FixedPoint::new(8, 2).unwrap();
        assert_eq!(fmt.frac_bits(), 5);
        assert_eq!(fmt.step(), 0.03125);
        assert_eq!(fmt.value_max(), 4.0 - 0.03125);
    }

    #[test]
    fn grid_values_exact() {
        let fmt = FixedPoint::new(8, 2).unwrap();
        for k in -20..20 {
            let v = k as f32 * 0.03125;
            assert_eq!(fmt.quantize_value(v), v);
        }
    }

    #[test]
    fn saturation_symmetric() {
        let fmt = FixedPoint::new(8, 2).unwrap();
        let vmax = fmt.value_max() as f32;
        assert_eq!(fmt.quantize_value(100.0), vmax);
        assert_eq!(fmt.quantize_value(-100.0), -vmax);
    }

    #[test]
    fn fixed_range_fails_on_wide_data() {
        // Q2.5 saturates far below Transformer-scale weights.
        let fmt = FixedPoint::new(8, 2).unwrap();
        assert!(fmt.quantize_value(20.41) < 4.0);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(FixedPoint::new(8, 8).is_err());
        assert!(FixedPoint::new(1, 0).is_err());
        assert!(FixedPoint::new(8, 7).is_ok());
    }

    #[test]
    fn nan_to_zero() {
        let fmt = FixedPoint::new(8, 2).unwrap();
        assert_eq!(fmt.quantize_value(f32::NAN), 0.0);
    }
}
