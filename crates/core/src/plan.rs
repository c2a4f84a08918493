//! The plan/execute quantization pipeline.
//!
//! The paper's Algorithm 1 is naturally two phases: derive the per-tensor
//! parameters once (`exp_bias` from `max |W|` — step 1), then apply the
//! rounding map to every element (steps 2–4). This module separates those
//! phases for *every* format, mirroring what the hardware does with its
//! scale/bias registers:
//!
//! * [`QuantStats`] — one single-pass scan over the tensor (integer-domain
//!   max-abs, recording the first non-finite element on the way), or a
//!   calibrated range captured offline;
//! * [`QuantPlan`] — the frozen per-tensor parameters for any format
//!   (AdaptivFloat exponent bias, BFP shared exponent, uniform scale,
//!   static float/posit/fixed grids) plus an execution backend chosen
//!   **once at plan time**;
//! * [`QuantPlan::execute_into`] / [`QuantPlan::execute_in_place`] — the
//!   allocation-free executor, bit-identical to the fused
//!   `NumberFormat::quantize_slice` paths it replaces.
//!
//! # Backend cost heuristic
//!
//! The backend is picked from `(format, n, len)` when the plan is built,
//! never per element:
//!
//! * **AdaptivFloat** uses the bit-twiddled [`FastQuantizer`] whenever the
//!   grid fits the normal-f32 envelope (every paper configuration does),
//!   falling back to the f64 analytic reference outside it.
//! * **Enumerable formats** (float, posit, fixed, uniform-at-a-scale,
//!   BFP-at-an-exponent) compile to a cached direct-index codebook when
//!   `n ≤ 8` and the tensor is long enough to amortize the cache lookup
//!   (`len ≥ 32`): one bucket index, one compare and two table loads
//!   per element (three gathers per eight on AVX2). Otherwise they run
//!   the analytic scalar map. The codebook handle is resolved at plan
//!   time, so executing a plan never touches the codebook cache — a
//!   warmed serving path takes no locks at all.
//! * **All-zero BFP tensors** (and calibrated `max_abs == 0` ranges)
//!   compile to a trivial zero-fill backend.
//! * **Per-block formats** (blocked BFP, per-block AdaptivFloat) re-derive
//!   their block parameters during execution, exactly as the fused paths
//!   did — block granularity is the parameter, not a per-tensor constant.
//!
//! Every backend is bit-identical to every other for the same parameters
//! (the LUT is exact by construction, the kernel is proven against the
//! reference), so the heuristic affects only speed, never results.

use std::sync::Arc;

use crate::adaptiv::{AdaptivFloat, AdaptivParams};
use crate::bfp::BlockFloat;
use crate::block_adaptiv::BlockAdaptivFloat;
use crate::fixed::FixedPoint;
use crate::ieee_like::IeeeLikeFloat;
use crate::kernels::FastQuantizer;
use crate::lut::LutQuantizer;
use crate::posit::Posit;
use crate::uniform::Uniform;

/// Single-pass statistics a format plans against: the maximum finite
/// magnitude, the position of the first non-finite element (folded into
/// the same scan, so strict paths never traverse twice), the tensor
/// length (the backend heuristic's amortization input), and whether the
/// range was *calibrated* offline rather than derived from the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantStats {
    max_abs: f32,
    first_non_finite: Option<usize>,
    len: usize,
    calibrated: bool,
}

impl QuantStats {
    /// Scan `data` once: integer-domain max-abs reduction that also
    /// records the index of the first NaN/±∞ element. Runs the canonical
    /// fused scan in [`crate::simd::scan_abs`] — the same implementation
    /// behind `kernels::max_abs_bits`, so the max-abs pass exists once
    /// (and is vectorized once) for the whole crate.
    pub fn from_slice(data: &[f32]) -> QuantStats {
        let (max, first_non_finite) = crate::simd::scan_abs(data);
        QuantStats {
            max_abs: f32::from_bits(max),
            first_non_finite,
            len: data.len(),
            calibrated: false,
        }
    }

    /// A calibrated range captured offline (the paper's activation
    /// quantization): the maximum magnitude is `max_abs` regardless of
    /// the data each execution sees. The tensor length is taken as
    /// unbounded, so length-gated backends (LUT codebooks) engage —
    /// the plan is built once and reused across many requests.
    pub fn calibrated(max_abs: f32) -> QuantStats {
        QuantStats {
            max_abs,
            first_non_finite: None,
            len: usize::MAX,
            calibrated: true,
        }
    }

    /// A calibrated range for one known tensor length (what the
    /// `quantize_slice_with_max` compatibility wrapper uses, preserving
    /// the fused paths' per-call backend gating exactly).
    pub fn calibrated_with_len(max_abs: f32, len: usize) -> QuantStats {
        QuantStats {
            max_abs,
            first_non_finite: None,
            len,
            calibrated: true,
        }
    }

    /// Maximum finite magnitude observed (or the calibrated range).
    pub fn max_abs(&self) -> f32 {
        self.max_abs
    }

    /// Index of the first non-finite element, if the scan saw one.
    pub fn first_non_finite(&self) -> Option<usize> {
        self.first_non_finite
    }

    /// Number of elements scanned (or the assumed length for calibrated
    /// stats).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements were scanned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the range came from offline calibration rather than the
    /// data itself (calibrated plans ignore block structure, exactly as
    /// the fused `quantize_slice_with_max` paths did).
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }
}

/// The frozen per-tensor parameters a plan carries, exposed for
/// introspection (the resilience codec reads these to build its
/// bit-accurate storage encoders without re-deriving anything).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanParams {
    /// AdaptivFloat: the per-tensor exponent bias (Algorithm 1, step 1).
    AdaptivFloat {
        /// The derived exponent bias.
        exp_bias: i32,
    },
    /// Block floating-point: the per-tensor shared exponent, or `None`
    /// when the tensor was all zero (everything quantizes to 0).
    Bfp {
        /// The shared exponent, `None` for an all-zero range.
        shared_exp: Option<i32>,
    },
    /// Uniform: the derived full-precision scale.
    Uniform {
        /// The per-tensor scale (`max_abs / q_max`, or 1.0 at zero range).
        scale: f64,
    },
    /// A static grid fixed by the geometry alone (float, posit, fixed).
    Static,
    /// Parameters are re-derived per block during execution (blocked BFP,
    /// per-block AdaptivFloat).
    PerBlock,
}

/// How the plan applies the rounding map — chosen once at plan time.
#[derive(Debug, Clone)]
pub(crate) enum Backend {
    /// Everything quantizes to zero (BFP at an all-zero range).
    Zero,
    /// Bit-twiddled AdaptivFloat kernel.
    Kernel(FastQuantizer),
    /// Prewarmed direct-index codebook (no cache access at execute time).
    Lut(Arc<LutQuantizer>),
    /// AdaptivFloat f64 analytic reference (outside the kernel envelope).
    AdaptivRef {
        /// Format geometry.
        fmt: AdaptivFloat,
        /// Frozen per-tensor parameters.
        params: AdaptivParams,
    },
    /// IEEE-like float analytic scalar map.
    IeeeScalar(IeeeLikeFloat),
    /// Posit table-walk scalar map (shared, the table is not cloned).
    PositScalar(Arc<Posit>),
    /// Fixed-point analytic scalar map.
    FixedScalar(FixedPoint),
    /// Uniform analytic scalar map at a frozen scale.
    UniformScalar {
        /// Format geometry.
        fmt: Uniform,
        /// Frozen per-tensor scale.
        scale: f64,
    },
    /// BFP analytic scalar map at a frozen shared exponent.
    BfpScalar {
        /// Format geometry.
        fmt: BlockFloat,
        /// Frozen shared exponent.
        exp: i32,
    },
    /// Blocked BFP: per-block shared exponents derived during execution.
    BfpBlocked(BlockFloat),
    /// Per-block AdaptivFloat: per-block biases derived during execution.
    BlockAdaptiv(BlockAdaptivFloat),
}

/// A frozen, reusable quantization plan: per-tensor parameters plus the
/// execution backend, built once via [`NumberFormat::plan`] and executed
/// allocation-free many times.
///
/// [`NumberFormat::plan`]: crate::format::NumberFormat::plan
///
/// # Examples
///
/// ```
/// use adaptivfloat::{AdaptivFloat, NumberFormat, QuantStats};
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// let fmt = AdaptivFloat::new(8, 3)?;
/// let data = [0.02_f32, -1.4, 3.1, -0.3, 0.0];
/// let plan = fmt.plan(&QuantStats::from_slice(&data));
/// let mut out = [0.0_f32; 5];
/// plan.execute_into(&data, &mut out); // no allocation
/// assert_eq!(out.to_vec(), fmt.quantize_slice(&data));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantPlan {
    bits: u32,
    params: PlanParams,
    backend: Backend,
}

/// Elementwise map `src → dst` through `f`, parallel for large slices.
fn zip_map_into(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    crate::par::par_zip_into(src, dst, |s, d| {
        for (dv, &sv) in d.iter_mut().zip(s) {
            *dv = f(sv);
        }
    });
}

/// Elementwise in-place map through `f`, parallel for large slices.
fn apply_map(data: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    crate::par::par_apply(data, |chunk| {
        for v in chunk.iter_mut() {
            *v = f(*v);
        }
    });
}

impl QuantPlan {
    /// Assemble a plan (format `plan()` implementations only).
    pub(crate) fn new(bits: u32, params: PlanParams, backend: Backend) -> QuantPlan {
        QuantPlan {
            bits,
            params,
            backend,
        }
    }

    /// Word size of the format this plan quantizes for.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The frozen per-tensor parameters.
    pub fn params(&self) -> &PlanParams {
        &self.params
    }

    /// Whether this plan executes through a LUT codebook (and therefore
    /// warmed the process-wide cache when it was built). Used by
    /// `prewarm_codebooks`: building the plan *is* the prewarm.
    pub fn uses_codebook(&self) -> bool {
        matches!(self.backend, Backend::Lut(_))
    }

    /// The backend this plan selected, as a diagnostic label:
    /// `"zero"`, `"kernel"`, `"lut"`, `"analytic"` or `"blocked"`.
    pub fn backend_label(&self) -> &'static str {
        match &self.backend {
            Backend::Zero => "zero",
            Backend::Kernel(_) => "kernel",
            Backend::Lut(_) => "lut",
            Backend::AdaptivRef { .. }
            | Backend::IeeeScalar(_)
            | Backend::PositScalar(_)
            | Backend::FixedScalar(_)
            | Backend::UniformScalar { .. }
            | Backend::BfpScalar { .. } => "analytic",
            Backend::BfpBlocked(_) | Backend::BlockAdaptiv(_) => "blocked",
        }
    }

    /// Execute the plan: quantize `src` into `dst` with no heap
    /// allocation. Bit-identical to the fused `quantize_slice` paths.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn execute_into(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        match &self.backend {
            Backend::Zero => dst.fill(0.0),
            Backend::Kernel(fast) => {
                crate::par::par_zip_into(src, dst, |s, d| fast.quantize_into(s, d));
            }
            Backend::Lut(table) => {
                crate::par::par_zip_into(src, dst, |s, d| table.quantize_into(s, d));
            }
            Backend::AdaptivRef { fmt, params } => {
                zip_map_into(src, dst, |v| fmt.quantize_with(params, v));
            }
            Backend::IeeeScalar(fmt) => zip_map_into(src, dst, |v| fmt.quantize_value(v)),
            Backend::PositScalar(fmt) => zip_map_into(src, dst, |v| fmt.quantize_value(v)),
            Backend::FixedScalar(fmt) => zip_map_into(src, dst, |v| fmt.quantize_value(v)),
            Backend::UniformScalar { fmt, scale } => {
                zip_map_into(src, dst, |v| fmt.quantize_at(*scale, v));
            }
            Backend::BfpScalar { fmt, exp } => {
                zip_map_into(src, dst, |v| fmt.quantize_one_at(*exp, v));
            }
            Backend::BfpBlocked(fmt) => {
                dst.copy_from_slice(src);
                let block = fmt.block_size().unwrap_or(src.len().max(1));
                for chunk in dst.chunks_mut(block) {
                    fmt.quantize_block(chunk);
                }
            }
            Backend::BlockAdaptiv(fmt) => {
                let block = fmt.block_size();
                let inner = fmt.scalar_format();
                for (s, d) in src.chunks(block).zip(dst.chunks_mut(block)) {
                    let params = inner.params_for(s);
                    for (dv, &sv) in d.iter_mut().zip(s) {
                        *dv = inner.quantize_with(&params, sv);
                    }
                }
            }
        }
    }

    /// Execute the plan in place: quantize `data` where it sits, with no
    /// heap allocation and no second buffer. Bit-identical to
    /// [`execute_into`](Self::execute_into) on the same input.
    pub fn execute_in_place(&self, data: &mut [f32]) {
        match &self.backend {
            Backend::Zero => data.fill(0.0),
            Backend::Kernel(fast) => {
                crate::par::par_apply(data, |chunk| fast.quantize_in_place(chunk));
            }
            Backend::Lut(table) => {
                crate::par::par_apply(data, |chunk| table.quantize_in_place(chunk));
            }
            Backend::AdaptivRef { fmt, params } => {
                apply_map(data, |v| fmt.quantize_with(params, v));
            }
            Backend::IeeeScalar(fmt) => apply_map(data, |v| fmt.quantize_value(v)),
            Backend::PositScalar(fmt) => apply_map(data, |v| fmt.quantize_value(v)),
            Backend::FixedScalar(fmt) => apply_map(data, |v| fmt.quantize_value(v)),
            Backend::UniformScalar { fmt, scale } => {
                apply_map(data, |v| fmt.quantize_at(*scale, v));
            }
            Backend::BfpScalar { fmt, exp } => {
                apply_map(data, |v| fmt.quantize_one_at(*exp, v));
            }
            Backend::BfpBlocked(fmt) => {
                let block = fmt.block_size().unwrap_or(data.len().max(1));
                for chunk in data.chunks_mut(block) {
                    fmt.quantize_block(chunk);
                }
            }
            Backend::BlockAdaptiv(fmt) => {
                let block = fmt.block_size();
                let inner = fmt.scalar_format();
                for chunk in data.chunks_mut(block) {
                    // Parameters must come from the pre-quantization
                    // values: derive before overwriting.
                    let params = inner.params_for(chunk);
                    for v in chunk.iter_mut() {
                        *v = inner.quantize_with(&params, *v);
                    }
                }
            }
        }
    }

    /// Execute the plan through the **scalar** kernel twins, bypassing
    /// the SIMD dispatch in [`execute_into`](Self::execute_into) (and its
    /// thread fan-out). Bit-identical to `execute_into` by construction —
    /// this is the reference leg benchmarks and the bit-identity suites
    /// compare the vector paths against in one process, without flipping
    /// the process-wide `AF_FORCE_SCALAR` switch.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn execute_into_scalar(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        match &self.backend {
            Backend::Kernel(fast) => fast.quantize_into_scalar(src, dst),
            Backend::Lut(table) => table.quantize_into_scalar(src, dst),
            // Every other backend is already a scalar map.
            _ => self.execute_into(src, dst),
        }
    }

    /// Execute into a fresh vector (the convenience the compatibility
    /// wrappers use; hot paths should reuse buffers via
    /// [`execute_into`](Self::execute_into)).
    pub fn execute(&self, src: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        self.execute_into(src, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FormatKind, NumberFormat};

    fn mixed_data(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 * 0.37).sin() + (i as f32 * 0.11).cos()) * 2.3)
            .collect()
    }

    #[test]
    fn stats_scan_matches_reference_fold() {
        let data = [
            0.0f32,
            -0.0,
            1.5,
            -2.25,
            f32::NAN,
            f32::INFINITY,
            -1e-40,
            3.7e37,
        ];
        let stats = QuantStats::from_slice(&data);
        let reference = data
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        assert_eq!(stats.max_abs().to_bits(), reference.to_bits());
        assert_eq!(stats.first_non_finite(), Some(4));
        assert_eq!(stats.len(), 8);
        assert!(!stats.is_calibrated());
        assert_eq!(QuantStats::from_slice(&[]).max_abs(), 0.0);
        assert_eq!(QuantStats::from_slice(&[1.0, 2.0]).first_non_finite(), None);
    }

    #[test]
    fn plan_execute_matches_quantize_slice_for_every_kind() {
        let data = mixed_data(300);
        for kind in FormatKind::ALL {
            for n in [4u32, 8, 16] {
                let fmt = kind.build(n).unwrap();
                let plan = fmt.plan(&QuantStats::from_slice(&data));
                assert_eq!(plan.bits(), n);
                let mut out = vec![0.0f32; data.len()];
                plan.execute_into(&data, &mut out);
                let want = fmt.quantize_slice(&data);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{kind} n={n}");
            }
        }
    }

    #[test]
    fn execute_in_place_matches_execute_into() {
        let data = mixed_data(100);
        for kind in FormatKind::ALL {
            let fmt = kind.build(8).unwrap();
            let plan = fmt.plan(&QuantStats::from_slice(&data));
            let into = plan.execute(&data);
            let mut in_place = data.clone();
            plan.execute_in_place(&mut in_place);
            assert_eq!(
                into.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                in_place.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{kind}"
            );
        }
    }

    #[test]
    fn backend_choice_follows_cost_heuristic() {
        let long = mixed_data(256);
        let short = mixed_data(8);
        // AdaptivFloat in the envelope → kernel, at any length.
        let af = FormatKind::AdaptivFloat.build(8).unwrap();
        assert_eq!(
            af.plan(&QuantStats::from_slice(&long)).backend_label(),
            "kernel"
        );
        assert_eq!(
            af.plan(&QuantStats::from_slice(&short)).backend_label(),
            "kernel"
        );
        // Enumerable formats: LUT for long tensors at n ≤ 8, scalar else.
        let posit = FormatKind::Posit.build(8).unwrap();
        let plan = posit.plan(&QuantStats::from_slice(&long));
        assert_eq!(plan.backend_label(), "lut");
        assert!(plan.uses_codebook());
        assert_eq!(
            posit.plan(&QuantStats::from_slice(&short)).backend_label(),
            "analytic"
        );
        let posit16 = FormatKind::Posit.build(16).unwrap();
        assert_eq!(
            posit16.plan(&QuantStats::from_slice(&long)).backend_label(),
            "analytic"
        );
        // All-zero BFP → zero-fill.
        let bfp = FormatKind::Bfp.build(8).unwrap();
        assert_eq!(
            bfp.plan(&QuantStats::from_slice(&[0.0; 64]))
                .backend_label(),
            "zero"
        );
    }

    #[test]
    fn calibrated_plan_reused_across_batches_stays_bit_identical() {
        // The serving pattern: one calibrated plan, many differently
        // sized executions — each must equal the fused with_max path.
        let fmt = FormatKind::Uniform.build(8).unwrap();
        let plan = fmt.plan(&QuantStats::calibrated(3.0));
        for len in [1usize, 7, 32, 300] {
            let data = mixed_data(len);
            let got = plan.execute(&data);
            let want = fmt.quantize_slice_with_max(3.0, &data);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    #[test]
    fn plan_params_expose_frozen_parameters() {
        let data = mixed_data(100);
        let af = crate::AdaptivFloat::new(8, 3).unwrap();
        let plan = NumberFormat::plan(&af, &QuantStats::from_slice(&data));
        let want = af.params_for(&data).exp_bias;
        assert_eq!(*plan.params(), PlanParams::AdaptivFloat { exp_bias: want });
        let bfp = crate::BlockFloat::new(8).unwrap();
        let plan = NumberFormat::plan(&bfp, &QuantStats::from_slice(&data));
        assert!(matches!(
            plan.params(),
            PlanParams::Bfp {
                shared_exp: Some(_)
            }
        ));
        let uni = crate::Uniform::new(8).unwrap();
        let plan = NumberFormat::plan(&uni, &QuantStats::calibrated(127.0));
        assert_eq!(*plan.params(), PlanParams::Uniform { scale: 1.0 });
    }

    #[test]
    fn blocked_formats_rederive_per_block() {
        let mut data = vec![0.01f32; 64];
        data.extend(std::iter::repeat_n(5.0f32, 64));
        let fmt = crate::BlockFloat::with_block_size(8, 64).unwrap();
        let plan = NumberFormat::plan(&fmt, &QuantStats::from_slice(&data));
        assert_eq!(plan.backend_label(), "blocked");
        assert_eq!(*plan.params(), PlanParams::PerBlock);
        let got = plan.execute(&data);
        let want = fmt.quantize_slice(&data);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Calibrated stats ignore block structure, like with_max did.
        let cal = NumberFormat::plan(&fmt, &QuantStats::calibrated(5.0));
        let got = cal.execute(&data);
        let want = fmt.quantize_slice_with_max(5.0, &data);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
