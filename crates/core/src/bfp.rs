//! Block floating-point (BFP): a shared exponent per block with fixed-point
//! mantissas, as used by Flexpoint and the Brainwave NPU.
//!
//! Every element of a block is stored as a signed `(n−1)`-bit mantissa
//! scaled by `2^(E − n + 3)` where `E = floor(log2(max|block|))`. Collapsing
//! each element's exponent to the block maximum is what makes BFP cheap in
//! hardware — and what degrades small-magnitude elements, the weakness the
//! paper demonstrates on wide NLP weight distributions.

use std::sync::Arc;

use crate::decode::{DecodePolicy, DecodeStats};
use crate::error::FormatError;
use crate::format::NumberFormat;
use crate::lut::{self, LutKey, LutQuantizer};
use crate::util::{exp2, floor_log2, from_twos_complement, to_twos_complement};

/// Block floating-point format descriptor.
///
/// # Examples
///
/// ```
/// use adaptivfloat::{BlockFloat, NumberFormat};
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// // Per-tensor shared exponent (the paper's configuration).
/// let fmt = BlockFloat::new(8)?;
/// let q = fmt.quantize_slice(&[1.0, 0.001, -0.5]);
/// // The large value survives; the tiny one is crushed to the grid.
/// assert!((q[0] - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockFloat {
    n: u32,
    /// Elements sharing one exponent; `None` = the whole tensor.
    block: Option<usize>,
}

impl BlockFloat {
    /// Per-tensor shared exponent with `n`-bit words (1 sign bit,
    /// `n − 1` mantissa bits).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] unless `2 ≤ n ≤ 32`.
    pub fn new(n: u32) -> Result<Self, FormatError> {
        if !(2..=32).contains(&n) {
            return Err(FormatError::InvalidBits {
                n,
                e: 0,
                reason: "block float word size must be between 2 and 32 bits",
            });
        }
        Ok(BlockFloat { n, block: None })
    }

    /// Shared exponent per `block_size` consecutive elements instead of per
    /// tensor (used by the block-size ablation).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if `n` is out of range or
    /// `block_size` is zero.
    pub fn with_block_size(n: u32, block_size: usize) -> Result<Self, FormatError> {
        if block_size == 0 {
            return Err(FormatError::InvalidBits {
                n,
                e: 0,
                reason: "block size must be at least 1",
            });
        }
        let mut f = Self::new(n)?;
        f.block = Some(block_size);
        Ok(f)
    }

    /// Word size in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Block size (`None` means per-tensor).
    pub fn block_size(&self) -> Option<usize> {
        self.block
    }

    /// The shared exponent a block with maximum magnitude `max_abs` gets.
    pub fn shared_exponent(max_abs: f32) -> i32 {
        if max_abs == 0.0 {
            0
        } else {
            floor_log2(max_abs as f64)
        }
    }

    /// Largest mantissa level, `2^(n−2) − 1`.
    fn mant_max(&self) -> i64 {
        (1i64 << (self.n - 2)) - 1
    }

    /// The mantissa grid step for shared exponent `e`, `2^(E − n + 3)`.
    fn scale_at(&self, e: i32) -> f64 {
        exp2(e - self.n as i32 + 3)
    }

    /// Encode one element against a fixed shared exponent as an `n`-bit
    /// two's-complement mantissa word — what the weight buffer stores
    /// next to the block's exponent.
    pub fn encode_code(&self, e: i32, v: f32) -> u32 {
        if v.is_nan() {
            return 0;
        }
        let q = ((v as f64) / self.scale_at(e)).round() as i64;
        to_twos_complement(q.clamp(-self.mant_max(), self.mant_max()), self.n)
    }

    /// Decode an `n`-bit mantissa word against a shared exponent, exactly
    /// as the bits say (a corrupted word may decode outside the mantissa
    /// clamp range).
    pub fn decode_code(&self, e: i32, code: u32) -> f32 {
        (from_twos_complement(code, self.n) as f64 * self.scale_at(e)) as f32
    }

    /// Decode an `n`-bit mantissa word under a [`DecodePolicy`].
    ///
    /// Under [`DecodePolicy::Harden`], mantissa levels outside the
    /// quantizer's clamp range (`±(2^(n−2) − 1)` — reachable only via
    /// corruption, e.g. the unused `−2^(n−1)` extreme) clamp back to it,
    /// and a corrupted shared exponent that overflows `f32` repairs to
    /// `0.0`; both are counted in `stats`.
    pub fn decode_code_with_policy(
        &self,
        e: i32,
        code: u32,
        policy: DecodePolicy,
        stats: &mut DecodeStats,
    ) -> f32 {
        let v = self.decode_code(e, code);
        let max_abs = (self.mant_max() as f64 * self.scale_at(e)) as f32;
        stats.guard(policy, max_abs, v)
    }

    /// Quantize one element against a fixed shared exponent.
    pub(crate) fn quantize_one_at(&self, e: i32, v: f32) -> f32 {
        if v.is_nan() {
            return 0.0;
        }
        let scale = exp2(e - self.n as i32 + 3);
        let mant_max = (1i64 << (self.n - 2)) - 1;
        let q = ((v as f64) / scale).round() as i64;
        (q.clamp(-mant_max, mant_max) as f64 * scale) as f32
    }

    /// Quantize one block in place.
    pub(crate) fn quantize_block(&self, block: &mut [f32]) {
        let max_abs = f32::from_bits(crate::kernels::max_abs_bits(block));
        if max_abs == 0.0 {
            block.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        let e = Self::shared_exponent(max_abs);
        self.quantize_block_at(e, block);
    }

    /// The direct-index codebook at shared exponent `e` (`None` above 8
    /// bits). Shared exponents take few distinct values across blocks
    /// and tensors, so the per-exponent codebooks are reused heavily.
    pub(crate) fn codebook(&self, e: i32) -> Option<Arc<LutQuantizer>> {
        let key = LutKey::Bfp { n: self.n, exp: e };
        lut::codebook(key, self.n, |v| {
            (self.quantize_one_at(e, v), self.encode_code(e, v))
        })
    }

    /// Quantize a block in place against a fixed shared exponent.
    fn quantize_block_at(&self, e: i32, block: &mut [f32]) {
        let table = (block.len() >= lut::MIN_LUT_LEN)
            .then(|| self.codebook(e))
            .flatten();
        if let Some(table) = table {
            crate::par::par_apply(block, |chunk| table.quantize_in_place(chunk));
            return;
        }
        crate::par::par_apply(block, |chunk| {
            for v in chunk.iter_mut() {
                *v = self.quantize_one_at(e, *v);
            }
        });
    }

    /// Quantize, also returning the shared exponent of each block (what a
    /// hardware implementation stores alongside the mantissas).
    pub fn quantize_with_exponents(&self, data: &[f32]) -> (Vec<f32>, Vec<i32>) {
        let mut out = data.to_vec();
        let block_len = self.block.unwrap_or(data.len().max(1));
        let mut exps = Vec::new();
        for chunk in out.chunks_mut(block_len) {
            let max_abs = chunk
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(0.0f32, |acc, v| acc.max(v.abs()));
            exps.push(Self::shared_exponent(max_abs));
            self.quantize_block(chunk);
        }
        (out, exps)
    }
}

impl NumberFormat for BlockFloat {
    fn name(&self) -> String {
        match self.block {
            Some(b) => format!("BFP<{}>/block{}", self.n, b),
            None => format!("BFP<{}>", self.n),
        }
    }

    fn bits(&self) -> u32 {
        self.n
    }

    fn plan(&self, stats: &crate::plan::QuantStats) -> crate::plan::QuantPlan {
        use crate::plan::{Backend, PlanParams, QuantPlan};
        // Per-block exponents are re-derived during execution; a
        // calibrated range collapses to one shared exponent for the whole
        // slice, exactly as the fused with-max path did.
        if self.block.is_some() && !stats.is_calibrated() {
            return QuantPlan::new(self.n, PlanParams::PerBlock, Backend::BfpBlocked(*self));
        }
        let max_abs = stats.max_abs();
        if max_abs == 0.0 {
            return QuantPlan::new(self.n, PlanParams::Bfp { shared_exp: None }, Backend::Zero);
        }
        let e = Self::shared_exponent(max_abs);
        let table = (stats.len() >= lut::MIN_LUT_LEN)
            .then(|| self.codebook(e))
            .flatten();
        let backend = table.map_or(Backend::BfpScalar { fmt: *self, exp: e }, Backend::Lut);
        QuantPlan::new(
            self.n,
            PlanParams::Bfp {
                shared_exp: Some(e),
            },
            backend,
        )
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_magnitude_survives() {
        let fmt = BlockFloat::new(8).unwrap();
        let q = fmt.quantize_slice(&[3.7, 0.1, -1.0]);
        assert!((q[0] - 3.7).abs() < 0.05);
    }

    #[test]
    fn small_values_crushed_by_wide_range() {
        // With max 100 and 8-bit words the grid step is ~1.56; a value of
        // 0.4 is crushed to 0 — BFP's documented weakness.
        let fmt = BlockFloat::new(8).unwrap();
        let q = fmt.quantize_slice(&[100.0, 0.4]);
        assert_eq!(q[1], 0.0);
    }

    #[test]
    fn grid_step_matches_formula() {
        let fmt = BlockFloat::new(8).unwrap();
        // max 1.0 → E=0 → scale 2^(0−8+3) = 2^−5 = 0.03125.
        let q = fmt.quantize_slice(&[1.0, 0.03125, 0.046875]);
        assert_eq!(q[1], 0.03125);
        // 0.046875 = 1.5 steps → rounds away to 2 steps = 0.0625.
        assert_eq!(q[2], 0.0625);
    }

    #[test]
    fn symmetric_clamping() {
        let fmt = BlockFloat::new(4).unwrap();
        // 4-bit: mantissas in [−3, 3] at scale 2^(E−1).
        let q = fmt.quantize_slice(&[1.0, -1.0]);
        assert_eq!(q[0], -q[1]);
    }

    #[test]
    fn per_block_exponents_differ() {
        let fmt = BlockFloat::with_block_size(8, 2).unwrap();
        let (_, exps) = fmt.quantize_with_exponents(&[8.0, 1.0, 0.5, 0.25]);
        assert_eq!(exps, vec![3, -1]);
    }

    #[test]
    fn per_block_beats_per_tensor_on_bimodal_data() {
        use crate::rms_error;
        // Two populations of very different magnitude: a per-row shared
        // exponent renders the small block far better.
        let mut data = vec![50.0f32; 8];
        data.extend(std::iter::repeat_n(0.05f32, 8));
        let per_tensor = BlockFloat::new(8).unwrap().quantize_slice(&data);
        let per_block = BlockFloat::with_block_size(8, 8)
            .unwrap()
            .quantize_slice(&data);
        assert!(rms_error(&data, &per_block) < rms_error(&data, &per_tensor));
    }

    #[test]
    fn all_zero_block() {
        let fmt = BlockFloat::new(8).unwrap();
        assert_eq!(fmt.quantize_slice(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn nan_and_inf_handling() {
        let fmt = BlockFloat::new(8).unwrap();
        let q = fmt.quantize_slice(&[1.0, f32::NAN, f32::INFINITY]);
        assert_eq!(q[1], 0.0);
        // Infinity saturates to the mantissa clamp.
        assert!(q[2].is_finite());
    }

    #[test]
    fn idempotent() {
        let fmt = BlockFloat::new(6).unwrap();
        let data: Vec<f32> = (-40..40).map(|i| i as f32 * 0.13).collect();
        let q1 = fmt.quantize_slice(&data);
        let q2 = fmt.quantize_slice(&q1);
        assert_eq!(q1, q2);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(BlockFloat::new(1).is_err());
        assert!(BlockFloat::new(33).is_err());
        assert!(BlockFloat::with_block_size(8, 0).is_err());
    }
}
