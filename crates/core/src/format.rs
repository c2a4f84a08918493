//! The [`NumberFormat`] trait and the [`FormatKind`] selector used by the
//! paper's format sweeps.

use crate::error::FormatError;
use crate::plan::{QuantPlan, QuantStats};
use crate::{AdaptivFloat, BlockFloat, IeeeLikeFloat, Posit, Uniform};

/// A lossy numerical encoding that can quantize a tensor of `f32` values.
///
/// Adaptive formats (AdaptivFloat, block floating-point, uniform) derive
/// their scaling parameters from the data they are given — mirroring the
/// paper's layer-granularity adaptation. Non-adaptive formats (IEEE-like
/// float, posit) ignore the data statistics.
///
/// The trait is structured around the plan/execute split: every format
/// implements [`plan`](NumberFormat::plan), which freezes its per-tensor
/// parameters from a [`QuantStats`] scan into a reusable [`QuantPlan`];
/// the quantize methods below are thin wrappers over plan + execute, so
/// every call site — fused or planned — goes through the same backends
/// and produces bit-identical results.
///
/// # Examples
///
/// ```
/// use adaptivfloat::{NumberFormat, Uniform};
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// let fmt = Uniform::new(8)?;
/// let q = fmt.quantize_slice(&[0.5, -0.25, 1.0]);
/// assert!((q[2] - 1.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
pub trait NumberFormat: Send + Sync + std::fmt::Debug {
    /// Short human-readable name, e.g. `"AdaptivFloat<8,3>"`.
    fn name(&self) -> String;

    /// Total word size in bits (including the sign bit).
    fn bits(&self) -> u32;

    /// Freeze the per-tensor quantization parameters derived from `stats`
    /// (Algorithm 1, step 1 — generalized to every format) into a
    /// [`QuantPlan`], picking the execution backend once from the format
    /// geometry and tensor length. The plan can then be executed
    /// allocation-free any number of times.
    fn plan(&self, stats: &QuantStats) -> QuantPlan;

    /// Quantize every element of `data`, returning the *dequantized*
    /// (reconstructed) values. The output has the same length as `data`.
    ///
    /// Non-finite inputs are mapped deterministically: NaN becomes `0.0`
    /// and ±∞ saturates to the format's extremes; use
    /// [`try_quantize_slice`](NumberFormat::try_quantize_slice) to reject
    /// them instead.
    ///
    /// This is the plan/execute pipeline fused into one call: scan,
    /// [`plan`](NumberFormat::plan), execute into a fresh vector.
    fn quantize_slice(&self, data: &[f32]) -> Vec<f32> {
        self.plan(&QuantStats::from_slice(data)).execute(data)
    }

    /// Quantize, rejecting non-finite inputs.
    ///
    /// The non-finite check rides the planning scan (a [`QuantStats`]
    /// pass records the first non-finite index while reducing max-abs),
    /// so the strict path traverses the data once before quantizing.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NonFinite`] if any element is NaN or ±∞.
    fn try_quantize_slice(&self, data: &[f32]) -> Result<Vec<f32>, FormatError> {
        let stats = QuantStats::from_slice(data);
        if let Some(index) = stats.first_non_finite() {
            return Err(FormatError::NonFinite { index });
        }
        Ok(self.plan(&stats).execute(data))
    }

    /// Whether the format adapts its parameters to the data distribution.
    fn is_adaptive(&self) -> bool;

    /// Quantize under parameters derived from a *calibrated* maximum
    /// magnitude instead of the data's own maximum.
    ///
    /// This is how the paper quantizes activations: the per-layer range is
    /// "informed from statistics during offline batch inference", then held
    /// fixed at run time. Non-adaptive formats ignore `max_abs`.
    fn quantize_slice_with_max(&self, max_abs: f32, data: &[f32]) -> Vec<f32> {
        self.plan(&QuantStats::calibrated_with_len(max_abs, data.len()))
            .execute(data)
    }

    /// Pre-build any LUT codebooks the format would otherwise compile
    /// lazily on its first quantize call at calibrated range `max_abs`
    /// (the serving registry calls this at model-load time so the first
    /// request never pays the build, nor the cache's write lock).
    ///
    /// Building a calibrated plan *is* the prewarm: a codebook-backed
    /// plan resolves (and, on a miss, builds) its LUT handle at plan
    /// time. Returns `true` if the format has a codebook path and it is
    /// now warm; `false` for formats with no codebook (e.g. AdaptivFloat's
    /// bit-twiddled kernel, which has no cached state).
    fn prewarm_codebooks(&self, max_abs: f32) -> bool {
        self.plan(&QuantStats::calibrated(max_abs)).uses_codebook()
    }
}

/// The five format families compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FormatKind {
    /// Non-adaptive IEEE-like miniature float.
    Float,
    /// Block floating-point with a per-tensor shared exponent.
    Bfp,
    /// Symmetric uniform (integer) quantization.
    Uniform,
    /// Posit tapered-precision format.
    Posit,
    /// The paper's AdaptivFloat format.
    AdaptivFloat,
}

impl FormatKind {
    /// All kinds, in the column order used by the paper's tables.
    pub const ALL: [FormatKind; 5] = [
        FormatKind::Float,
        FormatKind::Bfp,
        FormatKind::Uniform,
        FormatKind::Posit,
        FormatKind::AdaptivFloat,
    ];

    /// Construct the format at word size `n` with the per-kind field split
    /// the paper found best: 3 exponent bits for AdaptivFloat, 4 for float
    /// (3 when `n == 4`), and `es = 1` for posit (`es = 0` when `n == 4`).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if `n` is too small for the
    /// kind's field split (all kinds need `n >= 4`; AdaptivFloat at the
    /// paper split needs `n >= 4` so the mantissa is non-negative).
    ///
    /// # Examples
    ///
    /// ```
    /// use adaptivfloat::FormatKind;
    ///
    /// # fn main() -> Result<(), adaptivfloat::FormatError> {
    /// let fmt = FormatKind::AdaptivFloat.build(8)?;
    /// assert_eq!(fmt.bits(), 8);
    /// assert!(fmt.is_adaptive());
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(self, n: u32) -> Result<Box<dyn NumberFormat>, FormatError> {
        let e = self.exponent_bits(n);
        Ok(match self {
            FormatKind::Float => Box::new(IeeeLikeFloat::new(n, e)?),
            FormatKind::Bfp => Box::new(BlockFloat::new(n)?),
            FormatKind::Uniform => Box::new(Uniform::new(n)?),
            FormatKind::Posit => Box::new(Posit::new(n, e)?),
            FormatKind::AdaptivFloat => Box::new(AdaptivFloat::new(n, e)?),
        })
    }

    /// The exponent field of the paper's split at word size `n`, shared
    /// by [`build`](Self::build) and [`StorageCodec`](crate::StorageCodec):
    /// AdaptivFloat `e = min(3, n − 1)` (at `n = 4` the mantissa field
    /// vanishes and the implied one remains), float `e = 4` (3 at
    /// `n ≤ 4`) and posit `es = 1` (0 at `n ≤ 4`). Block floating-point
    /// and uniform words have no per-value exponent field: 0.
    pub(crate) fn exponent_bits(self, n: u32) -> u32 {
        match self {
            FormatKind::AdaptivFloat => 3.min(n.saturating_sub(1)),
            FormatKind::Float if n <= 4 => 3,
            FormatKind::Float => 4,
            FormatKind::Posit if n <= 4 => 0,
            FormatKind::Posit => 1,
            FormatKind::Bfp | FormatKind::Uniform => 0,
        }
    }

    /// Column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            FormatKind::Float => "Float",
            FormatKind::Bfp => "BFP",
            FormatKind::Uniform => "Uniform",
            FormatKind::Posit => "Posit",
            FormatKind::AdaptivFloat => "AdaptivFloat",
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_kinds_at_paper_bit_widths() {
        for kind in FormatKind::ALL {
            for n in [4, 5, 6, 7, 8, 16] {
                let fmt = kind.build(n).unwrap();
                assert_eq!(fmt.bits(), n, "{kind} at {n} bits");
            }
        }
    }

    #[test]
    fn adaptive_flags_match_paper_taxonomy() {
        // The paper calls AdaptivFloat, uniform and BFP "self-adaptive";
        // float and posit are non-adaptive.
        assert!(FormatKind::AdaptivFloat.build(8).unwrap().is_adaptive());
        assert!(FormatKind::Uniform.build(8).unwrap().is_adaptive());
        assert!(FormatKind::Bfp.build(8).unwrap().is_adaptive());
        assert!(!FormatKind::Float.build(8).unwrap().is_adaptive());
        assert!(!FormatKind::Posit.build(8).unwrap().is_adaptive());
    }

    #[test]
    fn try_quantize_rejects_nan() {
        let fmt = FormatKind::AdaptivFloat.build(8).unwrap();
        let err = fmt.try_quantize_slice(&[1.0, f32::NAN]).unwrap_err();
        assert_eq!(err, FormatError::NonFinite { index: 1 });
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(FormatKind::Bfp.to_string(), "BFP");
        assert_eq!(FormatKind::AdaptivFloat.to_string(), "AdaptivFloat");
    }
}
