//! Symmetric uniform (integer) quantization with a full-precision scale —
//! the TensorRT-style baseline of the paper.

use std::sync::Arc;

use crate::decode::{DecodePolicy, DecodeStats};
use crate::error::FormatError;
use crate::format::NumberFormat;
use crate::lut::{self, LutKey, LutQuantizer};
use crate::util::{from_twos_complement, to_twos_complement};

/// Symmetric uniform quantizer: `q = clamp(round(v / s), −Q, Q) · s` with
/// `Q = 2^(n−1) − 1` and scale `s = max|data| / Q` derived per tensor.
///
/// # Examples
///
/// ```
/// use adaptivfloat::{NumberFormat, Uniform};
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// let fmt = Uniform::new(8)?;
/// let q = fmt.quantize_slice(&[1.0, -1.0, 0.0]);
/// assert_eq!(q[0], 1.0);
/// assert_eq!(q[2], 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uniform {
    n: u32,
}

impl Uniform {
    /// Create an `n`-bit symmetric uniform quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] unless `2 ≤ n ≤ 32`.
    pub fn new(n: u32) -> Result<Self, FormatError> {
        if !(2..=32).contains(&n) {
            return Err(FormatError::InvalidBits {
                n,
                e: 0,
                reason: "uniform word size must be between 2 and 32 bits",
            });
        }
        Ok(Uniform { n })
    }

    /// Word size in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The largest integer level, `2^(n−1) − 1`.
    pub fn q_max(&self) -> i64 {
        (1i64 << (self.n - 1)) - 1
    }

    /// The scale a tensor with maximum magnitude `max_abs` receives.
    pub fn scale_for(&self, max_abs: f32) -> f64 {
        if max_abs == 0.0 {
            1.0
        } else {
            max_abs as f64 / self.q_max() as f64
        }
    }

    /// Quantize one value under a fixed scale, returning the integer level.
    pub fn quantize_level(&self, scale: f64, v: f32) -> i64 {
        if v.is_nan() {
            return 0;
        }
        let q = ((v as f64) / scale).round();
        let q_max = self.q_max() as f64;
        q.clamp(-q_max, q_max) as i64
    }

    /// Encode one value under a fixed scale as an `n`-bit
    /// two's-complement level word — what an INT weight buffer stores.
    pub fn encode_code(&self, scale: f64, v: f32) -> u32 {
        to_twos_complement(self.quantize_level(scale, v), self.n)
    }

    /// Decode an `n`-bit level word exactly as the bits say (a corrupted
    /// word may decode to the unused `−2^(n−1)` extreme, outside the
    /// symmetric range).
    pub fn decode_code(&self, scale: f64, code: u32) -> f32 {
        (from_twos_complement(code, self.n) as f64 * scale) as f32
    }

    /// Decode an `n`-bit level word under a [`DecodePolicy`]: hardened
    /// decodes clamp levels beyond `±(2^(n−1) − 1)` back to the extreme
    /// (counted in `stats`); valid symmetric levels pass through.
    pub fn decode_code_with_policy(
        &self,
        scale: f64,
        code: u32,
        policy: DecodePolicy,
        stats: &mut DecodeStats,
    ) -> f32 {
        let v = self.decode_code(scale, code);
        let max_abs = (self.q_max() as f64 * scale) as f32;
        stats.guard(policy, max_abs, v)
    }

    /// Quantize one value under a fixed scale (the dequantized level).
    pub(crate) fn quantize_at(&self, scale: f64, v: f32) -> f32 {
        (self.quantize_level(scale, v) as f64 * scale) as f32
    }

    /// The direct-index codebook at `scale` (`None` above 8 bits). One
    /// per (geometry, scale); per-tensor scales repeat across calls
    /// (calibrated activations), so the cache pays off.
    pub(crate) fn codebook(&self, scale: f64) -> Option<Arc<LutQuantizer>> {
        let key = LutKey::Uniform {
            n: self.n,
            scale_bits: scale.to_bits(),
        };
        lut::codebook(key, self.n, |v| {
            (self.quantize_at(scale, v), self.encode_code(scale, v))
        })
    }

    /// Quantize a slice under a fixed scale (dequantized values).
    pub fn quantize_with_scale(&self, scale: f64, data: &[f32]) -> Vec<f32> {
        match (data.len() >= lut::MIN_LUT_LEN)
            .then(|| self.codebook(scale))
            .flatten()
        {
            Some(table) => table.quantize_slice(data),
            None => crate::par::par_map_slice(data, |v| self.quantize_at(scale, v)),
        }
    }

    /// Quantize, also returning the derived scale and integer levels —
    /// what an INT accelerator actually stores.
    pub fn quantize_levels(&self, data: &[f32]) -> (f64, Vec<i64>) {
        let max_abs = data
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        let scale = self.scale_for(max_abs);
        let levels = data
            .iter()
            .map(|&v| self.quantize_level(scale, v))
            .collect();
        (scale, levels)
    }
}

impl NumberFormat for Uniform {
    fn name(&self) -> String {
        format!("Uniform<{}>", self.n)
    }

    fn bits(&self) -> u32 {
        self.n
    }

    fn plan(&self, stats: &crate::plan::QuantStats) -> crate::plan::QuantPlan {
        use crate::plan::{Backend, PlanParams, QuantPlan};
        let scale = self.scale_for(stats.max_abs());
        let table = (stats.len() >= lut::MIN_LUT_LEN)
            .then(|| self.codebook(scale))
            .flatten();
        let backend = table.map_or(Backend::UniformScalar { fmt: *self, scale }, Backend::Lut);
        QuantPlan::new(self.n, PlanParams::Uniform { scale }, backend)
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rms_error;

    #[test]
    fn extremes_are_exact() {
        let fmt = Uniform::new(8).unwrap();
        let q = fmt.quantize_slice(&[5.0, -5.0, 0.0]);
        assert_eq!(q, vec![5.0, -5.0, 0.0]);
    }

    #[test]
    fn step_size_matches_formula() {
        let fmt = Uniform::new(8).unwrap();
        // max 127 → scale exactly 1.0.
        let q = fmt.quantize_slice(&[127.0, 3.4, -2.6]);
        assert_eq!(q, vec![127.0, 3.0, -3.0]);
    }

    #[test]
    fn equal_steps_everywhere() {
        let fmt = Uniform::new(6).unwrap();
        let (scale, _) = fmt.quantize_levels(&[1.0]);
        let data = [0.9f32, 0.5, 0.1, 0.01];
        let q = fmt.quantize_with_scale(scale, &data);
        for (&orig, &quant) in data.iter().zip(&q) {
            assert!(((orig - quant).abs() as f64) <= scale / 2.0 + 1e-9);
        }
    }

    #[test]
    fn wide_distribution_wastes_levels() {
        // One outlier at 100 forces a coarse grid: values below scale/2
        // vanish. This is the paper's motivation for format comparison.
        let fmt = Uniform::new(4).unwrap();
        let data = [100.0f32, 0.3, -0.2, 5.0];
        let q = fmt.quantize_slice(&data);
        assert_eq!(q[1], 0.0);
        assert_eq!(q[2], 0.0);
    }

    #[test]
    fn four_bit_has_15_levels() {
        let fmt = Uniform::new(4).unwrap();
        assert_eq!(fmt.q_max(), 7);
    }

    #[test]
    fn all_zero_tensor() {
        let fmt = Uniform::new(8).unwrap();
        assert_eq!(fmt.quantize_slice(&[0.0; 4]), vec![0.0; 4]);
    }

    #[test]
    fn idempotent() {
        let fmt = Uniform::new(5).unwrap();
        let data: Vec<f32> = (-30..30).map(|i| i as f32 * 0.21).collect();
        let q1 = fmt.quantize_slice(&data);
        let q2 = fmt.quantize_slice(&q1);
        assert_eq!(q1, q2);
    }

    #[test]
    fn more_bits_lower_error() {
        let data: Vec<f32> = (0..512)
            .map(|i| ((i * 37) % 101) as f32 * 0.07 - 3.5)
            .collect();
        let e4 = rms_error(&data, &Uniform::new(4).unwrap().quantize_slice(&data));
        let e8 = rms_error(&data, &Uniform::new(8).unwrap().quantize_slice(&data));
        assert!(e8 < e4);
    }

    #[test]
    fn nan_to_zero() {
        let fmt = Uniform::new(8).unwrap();
        let q = fmt.quantize_slice(&[1.0, f32::NAN]);
        assert_eq!(q[1], 0.0);
    }
}
