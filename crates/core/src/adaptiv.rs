//! The AdaptivFloat format and its quantization algorithm (Algorithm 1 of
//! the paper).
//!
//! An `AdaptivFloat<n, e>` word has one sign bit, `e` exponent bits and
//! `m = n − e − 1` mantissa bits. Unlike IEEE 754:
//!
//! * **no denormals** are ever produced or decoded, which keeps the
//!   hardware datapath lean (a single implied-one normalizer);
//! * the all-zero exponent+mantissa pattern, which would otherwise encode
//!   the minimum-magnitude value `2^exp_bias`, is **reassigned to ±0** —
//!   zero is essential to DNN computation (Figure 2 of the paper);
//! * a small signed integer **exponent bias** shifts the whole exponent
//!   range per tensor so the representable span hugs the data
//!   (`exp_bias = exp_max − (2^e − 1)` with
//!   `2^exp_max ≤ max|W| < 2^(exp_max+1)`).

use std::sync::Arc;

use crate::decode::{DecodePolicy, DecodeStats};
use crate::error::FormatError;
use crate::format::NumberFormat;
use crate::lut::{self, LutKey, LutQuantizer};
use crate::pack::PackedCodes;
use crate::util::{exp2, floor_log2};

/// The AdaptivFloat `<n, e>` format descriptor.
///
/// # Examples
///
/// ```
/// use adaptivfloat::AdaptivFloat;
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// let fmt = AdaptivFloat::new(4, 2)?;
/// assert_eq!(fmt.mantissa_bits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptivFloat {
    n: u32,
    e: u32,
}

/// Per-tensor quantization parameters: the format geometry plus the
/// exponent bias derived from the tensor's maximum absolute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptivParams {
    /// Total word size in bits.
    pub n: u32,
    /// Exponent field width in bits.
    pub e: u32,
    /// The per-tensor exponent bias (typically a small negative integer).
    pub exp_bias: i32,
}

impl AdaptivParams {
    /// Number of mantissa bits, `n − e − 1`.
    pub fn mantissa_bits(&self) -> u32 {
        self.n - self.e - 1
    }

    /// The largest exponent value reachable: `exp_bias + 2^e − 1`.
    pub fn exp_max(&self) -> i32 {
        // Shift in u64: `1i32 << 31` would overflow for e = 31 (n = 32).
        self.exp_bias + ((1u64 << self.e) - 1) as i32
    }

    /// Minimum representable non-zero magnitude,
    /// `2^exp_bias · (1 + 2^−m)` — the slot *after* the one sacrificed
    /// for zero.
    pub fn value_min(&self) -> f64 {
        let m = self.mantissa_bits();
        exp2(self.exp_bias) * (1.0 + exp2(-(m as i32)))
    }

    /// Maximum representable magnitude, `2^exp_max · (2 − 2^−m)`.
    pub fn value_max(&self) -> f64 {
        let m = self.mantissa_bits();
        exp2(self.exp_max()) * (2.0 - exp2(-(m as i32)))
    }
}

impl AdaptivFloat {
    /// Create an `AdaptivFloat<n, e>` format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] unless `1 ≤ e ≤ n − 1`
    /// (at least a sign bit and the exponent field must fit; `m = 0` is
    /// allowed — the mantissa is then the implied one alone) and `n ≤ 32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use adaptivfloat::AdaptivFloat;
    ///
    /// assert!(AdaptivFloat::new(8, 3).is_ok());
    /// assert!(AdaptivFloat::new(4, 4).is_err()); // no room for the sign bit
    /// ```
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
        Ok(AdaptivFloat { n, e })
    }

    /// Word size in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Exponent field width in bits.
    pub fn e(&self) -> u32 {
        self.e
    }

    /// Mantissa field width in bits, `n − e − 1`.
    pub fn mantissa_bits(&self) -> u32 {
        self.n - self.e - 1
    }

    /// Derive the per-tensor parameters from the data (Algorithm 1, step 1):
    /// find `exp_max` with `2^exp_max ≤ max|W| < 2^(exp_max+1)` and set
    /// `exp_bias = exp_max − (2^e − 1)`.
    ///
    /// An empty or all-zero tensor yields a conventional default of
    /// `exp_bias = −(2^e − 1)` (so `exp_max = 0`); every element quantizes
    /// to zero regardless. Non-finite elements are ignored when searching
    /// for the maximum.
    pub fn params_for(&self, data: &[f32]) -> AdaptivParams {
        let max_abs = data
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        let exp_max = if max_abs == 0.0 {
            0
        } else {
            floor_log2(max_abs as f64)
        };
        self.params_with_exp_max(exp_max)
    }

    /// Build parameters directly from a chosen `exp_max` (the exponent of
    /// the largest magnitude the format should reach).
    pub fn params_with_exp_max(&self, exp_max: i32) -> AdaptivParams {
        AdaptivParams {
            n: self.n,
            e: self.e,
            // Shift in u64: `1i32 << 31` would overflow for e = 31.
            exp_bias: exp_max - ((1u64 << self.e) - 1) as i32,
        }
    }

    /// Build parameters from an explicit exponent bias (e.g. one recovered
    /// from a hardware register).
    pub fn params_with_bias(&self, exp_bias: i32) -> AdaptivParams {
        AdaptivParams {
            n: self.n,
            e: self.e,
            exp_bias,
        }
    }

    /// Quantize a single value under fixed parameters (Algorithm 1, steps
    /// 2–4): sub-minimum magnitudes round to 0 or `value_min` at the
    /// halfway threshold, super-maximum magnitudes clamp to `value_max`,
    /// everything else rounds the normalized mantissa at scale `2^−m`
    /// (with carry into the exponent when the mantissa rounds up to 2).
    ///
    /// NaN maps to `0.0`; ±∞ saturates to `±value_max`.
    pub fn quantize_with(&self, params: &AdaptivParams, v: f32) -> f32 {
        debug_assert_eq!((params.n, params.e), (self.n, self.e));
        let sign = if v.is_sign_negative() { -1.0f64 } else { 1.0 };
        if v.is_nan() {
            return 0.0;
        }
        let a = v.abs() as f64;
        if a == 0.0 {
            return 0.0;
        }
        let vmin = params.value_min();
        let vmax = params.value_max();
        if a.is_infinite() || a >= vmax {
            return (sign * vmax) as f32;
        }
        if a < vmin {
            return if a < vmin * 0.5 {
                0.0
            } else {
                (sign * vmin) as f32
            };
        }
        let m = params.mantissa_bits();
        let mut exp = floor_log2(a);
        let mant = a / exp2(exp); // in [1, 2)
        let scale = exp2(m as i32);
        let mut q = (mant * scale).round() / scale;
        if q >= 2.0 {
            exp += 1;
            q = 1.0;
        }
        if exp > params.exp_max() {
            return (sign * vmax) as f32;
        }
        (sign * exp2(exp) * q) as f32
    }

    /// Quantize a slice under fixed parameters, using the bit-twiddled
    /// fast kernel when the grid fits the normal-f32 envelope (all paper
    /// configurations do) and the f64 reference otherwise. Bit-identical
    /// to mapping [`quantize_with`](Self::quantize_with).
    pub fn quantize_slice_with_params(&self, params: &AdaptivParams, data: &[f32]) -> Vec<f32> {
        match crate::kernels::FastQuantizer::new(self, params) {
            Some(fast) => {
                let mut out = vec![0.0f32; data.len()];
                crate::par::par_zip_into(data, &mut out, |src, dst| fast.quantize_into(src, dst));
                out
            }
            None => crate::par::par_map_slice(data, |v| self.quantize_with(params, v)),
        }
    }

    /// Quantize a whole slice through the scalar f64 reference path
    /// ([`params_for`](Self::params_for) + [`quantize_with`](Self::quantize_with)),
    /// bypassing the fast kernel. This is the oracle the property tests
    /// check the bit-twiddled path against; production callers should use
    /// [`NumberFormat::quantize_slice`].
    pub fn quantize_slice_reference(&self, data: &[f32]) -> Vec<f32> {
        let params = self.params_for(data);
        data.iter()
            .map(|&v| self.quantize_with(&params, v))
            .collect()
    }

    /// Encode a value to its `n`-bit pattern under fixed parameters.
    /// The value is quantized first, so any finite `f32` is accepted.
    ///
    /// Bit layout (MSB to LSB): sign, exponent field, mantissa field.
    /// The all-zero exponent+mantissa pattern is ±0.
    pub fn encode_with(&self, params: &AdaptivParams, v: f32) -> u32 {
        let q = self.quantize_with(params, v);
        let m = params.mantissa_bits();
        let sign_bit = u32::from(q.is_sign_negative() && q != 0.0);
        if q == 0.0 {
            return sign_bit << (self.n - 1);
        }
        let a = q.abs() as f64;
        let exp = floor_log2(a);
        let mant = a / exp2(exp); // in [1, 2)
        let exp_field = (exp - params.exp_bias) as u32;
        let mant_field = ((mant - 1.0) * exp2(m as i32)).round() as u32;
        debug_assert!(exp_field < (1 << self.e));
        debug_assert!(mant_field < (1 << m.max(1)) || m == 0);
        (sign_bit << (self.n - 1)) | (exp_field << m) | mant_field
    }

    /// The direct-index codebook under `params` (`None` above 8 bits):
    /// codes and values of every input in one lookup. Quantizing values
    /// stays with the bit-twiddled kernel, which is faster still; the
    /// codebook is what encodes a tensor to codes.
    pub(crate) fn codebook(&self, params: &AdaptivParams) -> Option<Arc<LutQuantizer>> {
        let key = LutKey::Adaptiv {
            n: self.n,
            e: self.e,
            exp_bias: params.exp_bias,
        };
        lut::codebook(key, self.n, |v| {
            (self.quantize_with(params, v), self.encode_with(params, v))
        })
    }

    /// Decode an `n`-bit pattern back to its value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `bits` has set bits above the word width.
    pub fn decode_with(&self, params: &AdaptivParams, bits: u32) -> f32 {
        debug_assert!(self.n == 32 || bits < (1u32 << self.n));
        let m = params.mantissa_bits();
        let sign_bit = (bits >> (self.n - 1)) & 1;
        let exp_field = (bits >> m) & ((1 << self.e) - 1);
        // m = 0 is fine: (1 << 0) - 1 = 0 masks the (absent) field away.
        let mant_field = bits & ((1u32 << m) - 1);
        if exp_field == 0 && mant_field == 0 {
            return 0.0;
        }
        let sign = if sign_bit == 1 { -1.0f64 } else { 1.0 };
        let exp = params.exp_bias + exp_field as i32;
        let mant = 1.0 + mant_field as f64 / exp2(m as i32);
        (sign * exp2(exp) * mant) as f32
    }

    /// Decode an `n`-bit pattern under a [`DecodePolicy`].
    ///
    /// Unlike [`decode_with`](Self::decode_with) this accepts arbitrary
    /// `u32` patterns (bits above the word width are masked off, as a
    /// hardware decoder's field extraction would) and, under
    /// [`DecodePolicy::Harden`], repairs decodes that leave the format's
    /// representable envelope — which a valid `(params, code)` pair never
    /// does, but a corrupted `exp_bias` register can (pushing `2^exp`
    /// past f32 infinity). Every decode and repair is counted in
    /// `stats`.
    pub fn decode_with_policy(
        &self,
        params: &AdaptivParams,
        bits: u32,
        policy: DecodePolicy,
        stats: &mut DecodeStats,
    ) -> f32 {
        let mask = if self.n == 32 {
            u32::MAX
        } else {
            (1u32 << self.n) - 1
        };
        let v = self.decode_with(params, bits & mask);
        stats.guard(policy, params.value_max() as f32, v)
    }

    /// Quantize a whole tensor: derive parameters, then quantize each
    /// element (this is exactly Algorithm 1 of the paper).
    pub fn quantize_tensor(&self, data: &[f32]) -> QuantizedTensor {
        let params = self.params_for(data);
        let mut packer = PackedCodes::new(self.n);
        for &v in data {
            packer.push(self.encode_with(&params, v) as u64);
        }
        QuantizedTensor {
            format: *self,
            params,
            codes: packer,
        }
    }

    /// Enumerate every representable value under `params`, sorted
    /// ascending. Contains exactly `2^n − 1` distinct values: the
    /// positive/negative grids plus a single 0 (±0 collapse).
    pub fn representable_values(&self, params: &AdaptivParams) -> Vec<f32> {
        let m = params.mantissa_bits();
        let mut vals = vec![0.0f32];
        for exp_field in 0..(1u32 << self.e) {
            for mant_field in 0..(1u32 << m) {
                if exp_field == 0 && mant_field == 0 {
                    continue; // the slot sacrificed for zero
                }
                let exp = params.exp_bias + exp_field as i32;
                let mant = 1.0 + mant_field as f64 / exp2(m as i32);
                let v = (exp2(exp) * mant) as f32;
                vals.push(v);
                vals.push(-v);
            }
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        vals
    }
}

impl NumberFormat for AdaptivFloat {
    fn name(&self) -> String {
        format!("AdaptivFloat<{},{}>", self.n, self.e)
    }

    fn bits(&self) -> u32 {
        self.n
    }

    fn plan(&self, stats: &crate::plan::QuantStats) -> crate::plan::QuantPlan {
        use crate::plan::{Backend, PlanParams, QuantPlan};
        // `params_for` over the single max reproduces both fused paths:
        // the from-data bits scan and the calibrated range (non-finite
        // calibrated maxima are filtered to the all-zero default).
        let params = self.params_for(&[stats.max_abs()]);
        let backend = match crate::kernels::FastQuantizer::new(self, &params) {
            Some(fast) => Backend::Kernel(fast),
            None => Backend::AdaptivRef { fmt: *self, params },
        };
        QuantPlan::new(
            self.n,
            PlanParams::AdaptivFloat {
                exp_bias: params.exp_bias,
            },
            backend,
        )
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

/// A tensor quantized to AdaptivFloat: bit-packed codes plus the shared
/// per-tensor parameters. This is the in-memory layout an accelerator
/// would hold in its weight buffer (codes) and a 4-bit register (bias).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    format: AdaptivFloat,
    params: AdaptivParams,
    codes: PackedCodes,
}

impl QuantizedTensor {
    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The shared per-tensor parameters (exponent bias).
    pub fn params(&self) -> &AdaptivParams {
        &self.params
    }

    /// The format descriptor.
    pub fn format(&self) -> &AdaptivFloat {
        &self.format
    }

    /// The raw code of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn code(&self, i: usize) -> u32 {
        self.codes.get(i) as u32
    }

    /// Decode element `i` back to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> f32 {
        self.format.decode_with(&self.params, self.code(i))
    }

    /// Decode the whole tensor.
    pub fn dequantize(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Decode the whole tensor under a [`DecodePolicy`], returning the
    /// values and the per-tensor corruption counters.
    pub fn dequantize_with_policy(&self, policy: DecodePolicy) -> (Vec<f32>, DecodeStats) {
        let mut stats = DecodeStats::new();
        let vals = (0..self.len())
            .map(|i| {
                self.format
                    .decode_with_policy(&self.params, self.code(i), policy, &mut stats)
            })
            .collect();
        (vals, stats)
    }

    /// Read-only view of the packed code storage.
    pub fn codes(&self) -> &PackedCodes {
        &self.codes
    }

    /// Mutable view of the packed code storage — the surface a fault
    /// campaign corrupts, exactly as a bit upset in a hardware weight
    /// buffer would.
    pub fn codes_mut(&mut self) -> &mut PackedCodes {
        &mut self.codes
    }

    /// Storage footprint of the packed codes in bytes (excluding the
    /// constant-size parameter block).
    pub fn packed_bytes(&self) -> usize {
        self.codes.packed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn af(n: u32, e: u32) -> AdaptivFloat {
        AdaptivFloat::new(n, e).unwrap()
    }

    /// Figure 3 of the paper: AdaptivFloat<4,2> on the worked 4×4 matrix.
    #[test]
    fn figure3_worked_example() {
        let fmt = af(4, 2);
        #[rustfmt::skip]
        let w = [
            -1.17, 2.71, -1.60, 0.43,
            -1.14, 2.05, 1.01, 0.07,
            0.16, -0.03, -0.89, -0.87,
            -0.04, -0.39, 0.64, -2.89,
        ];
        let params = fmt.params_for(&w);
        assert_eq!(params.exp_bias, -2);
        assert_eq!(params.value_min(), 0.375);
        assert_eq!(params.value_max(), 3.0);
        #[rustfmt::skip]
        let expected = [
            -1.0, 3.0, -1.5, 0.375,
            -1.0, 2.0, 1.0, 0.0,
            0.0, 0.0, -1.0, -0.75,
            0.0, -0.375, 0.75, -3.0,
        ];
        let got = fmt.quantize_slice(&w);
        for (i, (&g, &e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(g, e, "element {i}");
        }
    }

    /// Figure 2 of the paper: the <4,2> grid with exp_bias = −2 is
    /// ±{0.375, 0.5, 0.75, 1, 1.5, 2, 3} plus zero (±0.25 sacrificed).
    #[test]
    fn figure2_representable_grid() {
        let fmt = af(4, 2);
        let params = fmt.params_with_bias(-2);
        let vals = fmt.representable_values(&params);
        let expected: Vec<f32> = [-3.0, -2.0, -1.5, -1.0, -0.75, -0.5, -0.375]
            .into_iter()
            .chain([0.0])
            .chain([0.375, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
            .collect();
        assert_eq!(vals, expected);
        // 2^4 − 1 = 15 distinct values (±0 collapse into one).
        assert_eq!(vals.len(), 15);
    }

    #[test]
    fn exp_bias_tracks_max_abs() {
        let fmt = af(8, 3);
        // max |w| = 0.9 → exp_max = −1 → bias = −1 − 7 = −8.
        let params = fmt.params_for(&[0.1, -0.9, 0.5]);
        assert_eq!(params.exp_bias, -8);
        // max |w| = 20.0 → exp_max = 4 → bias = −3.
        let params = fmt.params_for(&[20.0, -3.0]);
        assert_eq!(params.exp_bias, -3);
    }

    #[test]
    fn exact_powers_of_two_boundary() {
        let fmt = af(8, 3);
        // 2^3 = 8 exactly: exp_max must be 3, not 2.
        let params = fmt.params_for(&[8.0]);
        assert_eq!(params.exp_bias, 3 - 7);
        // And 8.0 must round-trip exactly.
        assert_eq!(fmt.quantize_with(&params, 8.0), 8.0);
    }

    #[test]
    fn zero_and_signed_zero() {
        let fmt = af(8, 3);
        let params = fmt.params_for(&[1.0]);
        assert_eq!(fmt.quantize_with(&params, 0.0), 0.0);
        assert_eq!(fmt.quantize_with(&params, -0.0), 0.0);
        assert_eq!(fmt.encode_with(&params, 0.0), 0);
        // −0 encodes with the sign bit but decodes to 0.0.
        let neg_zero_code = fmt.encode_with(&params, -1e-30);
        assert_eq!(fmt.decode_with(&params, neg_zero_code), 0.0);
    }

    #[test]
    fn sub_minimum_halfway_rule() {
        let fmt = af(4, 2);
        let params = fmt.params_with_bias(-2); // vmin = 0.375
        assert_eq!(fmt.quantize_with(&params, 0.18), 0.0); // < vmin/2
        assert_eq!(fmt.quantize_with(&params, 0.19), 0.375); // ≥ vmin/2
        assert_eq!(fmt.quantize_with(&params, -0.19), -0.375);
    }

    #[test]
    fn clamps_to_value_max() {
        let fmt = af(4, 2);
        let params = fmt.params_with_bias(-2); // vmax = 3.0
        assert_eq!(fmt.quantize_with(&params, 100.0), 3.0);
        assert_eq!(fmt.quantize_with(&params, -100.0), -3.0);
        assert_eq!(fmt.quantize_with(&params, f32::INFINITY), 3.0);
        assert_eq!(fmt.quantize_with(&params, f32::NEG_INFINITY), -3.0);
        assert_eq!(fmt.quantize_with(&params, f32::NAN), 0.0);
    }

    #[test]
    fn mantissa_carry_does_not_exceed_value_max() {
        let fmt = af(4, 2);
        let params = fmt.params_with_bias(-2); // top point 3.0, vmax 3.0
                                               // 2.9 has mantissa 1.45 at exp 1 → rounds to 1.5 → 3.0. Fine.
        assert_eq!(fmt.quantize_with(&params, 2.9), 3.0);
        // 2.99 is below vmax but its mantissa would not carry past exp_max
        // (values ≥ vmax were already clamped); ensure no value above vmax
        // is ever produced across a dense sweep.
        let vmax = params.value_max() as f32;
        let mut x = -4.0f32;
        while x < 4.0 {
            assert!(fmt.quantize_with(&params, x).abs() <= vmax);
            x += 0.001;
        }
    }

    #[test]
    fn quantized_values_are_on_the_grid() {
        let fmt = af(6, 3);
        let data: Vec<f32> = (-100..100).map(|i| i as f32 * 0.037).collect();
        let params = fmt.params_for(&data);
        let grid = fmt.representable_values(&params);
        for &v in &data {
            let q = fmt.quantize_with(&params, v);
            assert!(grid.contains(&q), "{q} (from {v}) not on the grid");
        }
    }

    #[test]
    fn quantization_is_nearest_on_grid() {
        // Round-to-nearest: the chosen grid point minimizes |v − g| up to
        // tie-breaking.
        let fmt = af(6, 2);
        let data: Vec<f32> = (-200..200).map(|i| i as f32 * 0.01).collect();
        let params = fmt.params_for(&data);
        let grid = fmt.representable_values(&params);
        for &v in &data {
            let q = fmt.quantize_with(&params, v);
            let best = grid
                .iter()
                .map(|&g| (v - g).abs())
                .fold(f32::INFINITY, f32::min);
            let got = (v - q).abs();
            assert!(
                got <= best * (1.0 + 1e-6) + 1e-9,
                "v={v}: got err {got}, best {best}"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        for (n, e) in [(4, 2), (5, 2), (6, 3), (8, 3), (8, 4), (4, 3)] {
            let fmt = af(n, e);
            let params = fmt.params_with_bias(-5);
            for code in 0..(1u32 << n) {
                let v = fmt.decode_with(&params, code);
                let re = fmt.encode_with(&params, v);
                let v2 = fmt.decode_with(&params, re);
                assert_eq!(v, v2, "n={n} e={e} code={code:#x}");
            }
        }
    }

    #[test]
    fn idempotent_quantization() {
        let fmt = af(8, 3);
        let data: Vec<f32> = (-50..50).map(|i| i as f32 * 0.11).collect();
        let q1 = fmt.quantize_slice(&data);
        let q2 = fmt.quantize_slice(&q1);
        assert_eq!(q1, q2);
    }

    #[test]
    fn zero_mantissa_bits_word() {
        // AdaptivFloat<4,3>: sign + 3 exponent bits, no mantissa bits.
        let fmt = af(4, 3);
        assert_eq!(fmt.mantissa_bits(), 0);
        let params = fmt.params_for(&[1.0]);
        assert_eq!(params.exp_bias, -7);
        // Only powers of two (and zero); the minimum 2^-7 slot is zero's.
        let vals = fmt.representable_values(&params);
        assert_eq!(vals.len(), 15);
        assert!(vals.contains(&1.0));
        assert!(vals.contains(&0.015625)); // 2^-6 = value_min
        assert!(!vals.contains(&0.0078125)); // 2^-7 sacrificed
    }

    #[test]
    fn all_zero_tensor() {
        let fmt = af(8, 3);
        let q = fmt.quantize_slice(&[0.0, 0.0]);
        assert_eq!(q, vec![0.0, 0.0]);
        let qt = fmt.quantize_tensor(&[0.0; 10]);
        assert_eq!(qt.dequantize(), vec![0.0; 10]);
    }

    #[test]
    fn empty_tensor() {
        let fmt = af(8, 3);
        assert!(fmt.quantize_slice(&[]).is_empty());
        let qt = fmt.quantize_tensor(&[]);
        assert!(qt.is_empty());
        assert_eq!(qt.len(), 0);
    }

    #[test]
    fn quantized_tensor_roundtrip_and_footprint() {
        let fmt = af(8, 3);
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin() * 5.0).collect();
        let qt = fmt.quantize_tensor(&data);
        let deq = qt.dequantize();
        let direct = fmt.quantize_slice(&data);
        assert_eq!(deq, direct);
        // 1000 × 8 bits = 1000 bytes, padded to u64 granularity.
        assert!(qt.packed_bytes() >= 1000 && qt.packed_bytes() <= 1008);
    }

    #[test]
    fn negative_values_mirror_positive() {
        let fmt = af(8, 3);
        let params = fmt.params_with_bias(-7);
        let mut x = 0.001f32;
        while x < 2.0 {
            let qp = fmt.quantize_with(&params, x);
            let qn = fmt.quantize_with(&params, -x);
            assert_eq!(qp, -qn, "x={x}");
            x *= 1.1;
        }
    }

    #[test]
    fn constructor_rejects_bad_geometry() {
        assert!(AdaptivFloat::new(8, 0).is_err());
        assert!(AdaptivFloat::new(8, 8).is_err());
        assert!(AdaptivFloat::new(1, 1).is_err());
        assert!(AdaptivFloat::new(33, 3).is_err());
        assert!(AdaptivFloat::new(8, 7).is_ok()); // m = 0 allowed
    }

    #[test]
    fn floor_log2_matches_naive() {
        for &x in &[
            1.0f64, 1.5, 2.0, 3.9, 4.0, 0.5, 0.25, 0.1, 1e-20, 1e20, 2.89,
        ] {
            let expected = x.log2().floor() as i32;
            assert_eq!(floor_log2(x), expected, "x={x}");
        }
        // f32 subnormal smallest positive.
        let tiny = f32::from_bits(1) as f64;
        assert_eq!(floor_log2(tiny), -149);
    }
}
