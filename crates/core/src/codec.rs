//! Equal-word-size storage codecs: encode a tensor into the packed
//! `n`-bit codes a weight buffer would hold, and decode back under a
//! [`DecodePolicy`].
//!
//! A [`StorageCodec`] is the whole description of one stored layer's
//! encoding, as the paper has it: the format `<n, e>` of a
//! [`FormatKind`] at the paper's field split, plus the per-tensor side
//! state a real accelerator keeps next to the code buffer —
//! AdaptivFloat's `exp_bias` (Algorithm 1), BFP's shared exponent,
//! Uniform's scale. That state is frozen once, from the clean tensor
//! ([`fit`](StorageCodec::fit)) or from the [`PlanParams`] a container
//! stored ([`from_params`](StorageCodec::from_params)), so codes are
//! always read against *fixed* parameters, exactly like a deployed
//! model: a fault campaign corrupts them, a protected store scrubs
//! them, a fused GEMM multiplies them.
//!
//! Fixed parameters also mean every stored word is one of at most 2^n
//! decodes. At `n ≤ 8` the slice codecs encode through the codec's
//! direct-index [`codebook`](StorageCodec::codebook), compiled once per
//! parameter set from the scalar [`encode_one`](StorageCodec::encode_one)
//! and cached process-wide: any raw value's code is one lookup. Codes
//! decode through the [`CodeIndex`]'s per-code table, enumerated from
//! [`decode_one`](StorageCodec::decode_one), which also carries each
//! code's [`DecodeStats`]. The results are bit-identical to the
//! per-element scalar codec, which still answers for wider words
//! (`tests/codec_equivalence.rs` pins the equivalence). A codec holds no
//! decode table itself: each slice call builds its
//! [`index`](StorageCodec::index).

use std::sync::Arc;

use crate::lut::LutQuantizer;
use crate::{
    AdaptivFloat, AdaptivParams, BlockFloat, CodeIndex, DecodePolicy, DecodeStats, FormatError,
    FormatKind, IeeeLikeFloat, PackedCodes, PlanParams, Posit, QuantStats, Uniform,
};

/// A frozen per-tensor storage codec: one [`FormatKind`]'s geometry at
/// word size `n` plus the derived side parameters needed to encode and
/// decode `n`-bit words.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageCodec {
    /// AdaptivFloat `<n, min(3, n−1)>` with its fitted per-tensor
    /// exponent bias.
    Adaptiv {
        /// Format geometry.
        fmt: AdaptivFloat,
        /// Fitted per-tensor parameters (exp_bias).
        params: AdaptivParams,
    },
    /// IEEE-like float — stateless, the bits are self-describing.
    Ieee {
        /// Format geometry.
        fmt: IeeeLikeFloat,
    },
    /// Posit — stateless, the bits are self-describing.
    Posit {
        /// Format geometry.
        fmt: Posit,
    },
    /// Block floating-point with the fitted per-tensor shared exponent.
    Bfp {
        /// Format geometry.
        fmt: BlockFloat,
        /// Fitted shared exponent.
        exp: i32,
    },
    /// Symmetric uniform with the fitted per-tensor scale.
    Uniform {
        /// Format geometry.
        fmt: Uniform,
        /// Fitted scale.
        scale: f64,
    },
}

impl StorageCodec {
    /// Fit the codec for `kind` at word size `n` to a clean tensor: one
    /// scan, then the format's own planner freezes the side parameters —
    /// the same values every quantization call site uses, read back
    /// through [`from_params`](Self::from_params).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if `n` is invalid for the
    /// kind's geometry.
    pub fn fit(kind: FormatKind, n: u32, data: &[f32]) -> Result<Self, FormatError> {
        let plan = kind.build(n)?.plan(&QuantStats::from_slice(data));
        Self::from_params(kind, n, *plan.params())
    }

    /// Build the codec for `kind` at word size `n` from frozen
    /// [`PlanParams`] — what a format's plan derives for a tensor, or
    /// what a container stored: no tensor scan, no planner run. The
    /// field split is [`FormatKind::build`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if `n` is invalid for the
    /// kind's geometry or `params` is not the variant `kind` freezes
    /// (e.g. a Uniform scale presented for an AdaptivFloat tensor).
    pub fn from_params(kind: FormatKind, n: u32, params: PlanParams) -> Result<Self, FormatError> {
        let e = kind.exponent_bits(n);
        Ok(match (kind, params) {
            (FormatKind::AdaptivFloat, PlanParams::AdaptivFloat { exp_bias }) => {
                let fmt = AdaptivFloat::new(n, e)?;
                let params = AdaptivParams { n, e, exp_bias };
                StorageCodec::Adaptiv { fmt, params }
            }
            (FormatKind::Float, PlanParams::Static) => StorageCodec::Ieee {
                fmt: IeeeLikeFloat::new(n, e)?,
            },
            (FormatKind::Posit, PlanParams::Static) => StorageCodec::Posit {
                fmt: Posit::new(n, e)?,
            },
            // An all-zero tensor plans no shared exponent; its codes are
            // all zero under the degenerate one.
            (FormatKind::Bfp, PlanParams::Bfp { shared_exp }) => StorageCodec::Bfp {
                fmt: BlockFloat::new(n)?,
                exp: shared_exp.unwrap_or_else(|| BlockFloat::shared_exponent(0.0)),
            },
            (FormatKind::Uniform, PlanParams::Uniform { scale }) => StorageCodec::Uniform {
                fmt: Uniform::new(n)?,
                scale,
            },
            _ => {
                return Err(FormatError::InvalidBits {
                    n,
                    e: 0,
                    reason: "stored PlanParams variant does not match the format kind",
                })
            }
        })
    }

    /// The frozen per-tensor side state as the portable [`PlanParams`]
    /// record a container persists. Stateless codecs (IEEE, posit)
    /// report [`PlanParams::Static`].
    pub fn params(&self) -> PlanParams {
        match self {
            StorageCodec::Adaptiv { params, .. } => PlanParams::AdaptivFloat {
                exp_bias: params.exp_bias,
            },
            StorageCodec::Ieee { .. } | StorageCodec::Posit { .. } => PlanParams::Static,
            StorageCodec::Bfp { exp, .. } => PlanParams::Bfp {
                shared_exp: Some(*exp),
            },
            StorageCodec::Uniform { scale, .. } => PlanParams::Uniform { scale: *scale },
        }
    }

    /// The [`FormatKind`] this codec implements.
    pub fn kind(&self) -> FormatKind {
        match self {
            StorageCodec::Adaptiv { .. } => FormatKind::AdaptivFloat,
            StorageCodec::Ieee { .. } => FormatKind::Float,
            StorageCodec::Posit { .. } => FormatKind::Posit,
            StorageCodec::Bfp { .. } => FormatKind::Bfp,
            StorageCodec::Uniform { .. } => FormatKind::Uniform,
        }
    }

    /// Word size in bits.
    pub fn width(&self) -> u32 {
        match self {
            StorageCodec::Adaptiv { fmt, .. } => fmt.n(),
            StorageCodec::Ieee { fmt } => fmt.n(),
            StorageCodec::Posit { fmt } => fmt.n(),
            StorageCodec::Bfp { fmt, .. } => fmt.n(),
            StorageCodec::Uniform { fmt, .. } => fmt.n(),
        }
    }

    /// Encode one value to its `n`-bit word.
    pub fn encode_one(&self, v: f32) -> u32 {
        match self {
            StorageCodec::Adaptiv { fmt, params } => fmt.encode_with(params, v),
            StorageCodec::Ieee { fmt } => fmt.encode(v),
            StorageCodec::Posit { fmt } => fmt.encode(v),
            StorageCodec::Bfp { fmt, exp } => fmt.encode_code(*exp, v),
            StorageCodec::Uniform { fmt, scale } => fmt.encode_code(*scale, v),
        }
    }

    /// Decode one `n`-bit word under `policy`, counting into `stats`.
    pub fn decode_one(&self, code: u32, policy: DecodePolicy, stats: &mut DecodeStats) -> f32 {
        match self {
            StorageCodec::Adaptiv { fmt, params } => {
                fmt.decode_with_policy(params, code, policy, stats)
            }
            StorageCodec::Ieee { fmt } => fmt.decode_with_policy(code, policy, stats),
            StorageCodec::Posit { fmt } => fmt.decode_with_policy(code, policy, stats),
            StorageCodec::Bfp { fmt, exp } => {
                fmt.decode_code_with_policy(*exp, code, policy, stats)
            }
            StorageCodec::Uniform { fmt, scale } => {
                fmt.decode_code_with_policy(*scale, code, policy, stats)
            }
        }
    }

    /// The codec's direct-index codebook: every input's code (and its
    /// quantized value) in one lookup, bit-identical to
    /// [`encode_one`](Self::encode_one). Cached process-wide per format
    /// geometry and side parameters; `None` above 8 bits.
    pub fn codebook(&self) -> Option<Arc<LutQuantizer>> {
        match self {
            StorageCodec::Adaptiv { fmt, params } => fmt.codebook(params),
            StorageCodec::Ieee { fmt } => fmt.codebook(),
            StorageCodec::Posit { fmt } => fmt.codebook(),
            StorageCodec::Bfp { fmt, exp } => fmt.codebook(*exp),
            StorageCodec::Uniform { fmt, scale } => fmt.codebook(*scale),
        }
    }

    /// The codec's exact [`CodeIndex`]: its [`codebook`](Self::codebook)
    /// and per-code decode tables enumerated through
    /// [`decode_one`](Self::decode_one). `None` above 8 bits; the slice
    /// codecs then run the scalar encoder and decoder per element.
    pub fn index(&self) -> Option<CodeIndex> {
        CodeIndex::build(self.width(), self.codebook()?, |code, policy, stats| {
            self.decode_one(code, policy, stats)
        })
    }

    /// The code of every value of `data`, unpacked: one codebook lookup
    /// each (the scalar encoder above 8 bits), on the calling thread.
    /// Bit-identical to [`encode_one`](Self::encode_one) per element.
    pub fn encode_codes(&self, data: &[f32]) -> Vec<u32> {
        match self.codebook() {
            Some(codebook) => {
                let mut codes = vec![0u32; data.len()];
                codebook.encode_into(data, &mut codes);
                codes
            }
            None => data.iter().map(|&v| self.encode_one(v)).collect(),
        }
    }

    /// Encode a whole tensor into packed storage. Bit-identical to
    /// [`encode_one`](Self::encode_one) per element.
    pub fn encode_slice(&self, data: &[f32]) -> PackedCodes {
        let mut packed = PackedCodes::new(self.width());
        packed.extend_from_u32(&self.encode_codes(data));
        packed
    }

    /// Encode `data` and keep the codes only if each one decodes back,
    /// under [`DecodePolicy::Harden`], to its value's exact bit pattern
    /// — the check a store runs before it persists codes in place of
    /// raw f32s. Equals `encode_slice` followed by `decode_slice` and a
    /// bitwise compare.
    pub fn encode_exact(&self, data: &[f32]) -> Option<PackedCodes> {
        self.pack_exact(&self.encode_codes(data), data)
    }

    /// Pack `codes`, one per value of `data` and encoded elsewhere (a
    /// fused layer's kernel operand), if each one decodes back under
    /// [`DecodePolicy::Harden`] to its value's exact bit pattern.
    pub fn pack_exact(&self, codes: &[u32], data: &[f32]) -> Option<PackedCodes> {
        if codes.len() != data.len() {
            return None;
        }
        // Indexed codecs read the decode table; a code outside it (from
        // a caller's operand) never decodes to a value.
        let table = self.index().map(|index| index.values(DecodePolicy::Harden));
        let mut stats = DecodeStats::new();
        let exact = codes.iter().zip(data).all(|(&c, v)| {
            let back = match &table {
                Some(table) => table.get(c as usize).copied(),
                None => Some(self.decode_one(c, DecodePolicy::Harden, &mut stats)),
            };
            back.map(f32::to_bits) == Some(v.to_bits())
        });
        exact.then(|| {
            let mut packed = PackedCodes::new(self.width());
            packed.extend_from_u32(codes);
            packed
        })
    }

    /// Encode `data` whose rounding onto this codec's grid is already
    /// known (`rounded[i]` is `data[i]` quantized under the codec's
    /// frozen parameters). The codebook encodes raw values directly, so
    /// this is [`encode_slice`](Self::encode_slice)`(data)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn encode_rounded(&self, data: &[f32], rounded: &[f32]) -> PackedCodes {
        assert_eq!(data.len(), rounded.len(), "slice length mismatch");
        self.encode_slice(data)
    }

    /// Decode packed storage back to values under `policy`, returning
    /// the per-tensor corruption counters alongside. Bit-identical (in
    /// values and counters) to [`decode_one`](Self::decode_one) per
    /// code; at `n ≤ 8` it reads the index's decode table.
    pub fn decode_slice(
        &self,
        codes: &PackedCodes,
        policy: DecodePolicy,
    ) -> (Vec<f32>, DecodeStats) {
        // The table covers this codec's words; wider storage keeps the
        // per-code decoder's own handling of the extra bits.
        let index = (codes.width() <= self.width())
            .then(|| self.index())
            .flatten();
        let Some(index) = index else {
            let mut stats = DecodeStats::new();
            let vals = codes
                .iter()
                .map(|c| self.decode_one(c as u32, policy, &mut stats))
                .collect();
            return (vals, stats);
        };
        let mut words = vec![0u32; codes.len()];
        codes.unpack_u32_into(&mut words);
        index.decode(&words, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<f32> {
        (0..256)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.043)
            .collect()
    }

    #[test]
    fn clean_roundtrip_matches_quantizer_for_every_kind() {
        let data = sample_data();
        for kind in FormatKind::ALL {
            for n in [4u32, 8] {
                let codec = StorageCodec::fit(kind, n, &data).expect("valid geometry");
                let packed = codec.encode_slice(&data);
                let (decoded, stats) = codec.decode_slice(&packed, DecodePolicy::Harden);
                assert_eq!(stats.decoded, data.len() as u64);
                assert_eq!(
                    stats.repaired(),
                    0,
                    "{kind}: clean codes must never trip the hardening"
                );
                // The paper's formats quantize per tensor; the codec
                // round-trip must agree with the reference slice path.
                let fmt = kind.build(n).unwrap();
                let want = fmt.quantize_slice(&data);
                for (i, (&got, &w)) in decoded.iter().zip(&want).enumerate() {
                    assert!(
                        (got - w).abs() <= 1e-6 * w.abs().max(1.0),
                        "{kind} n={n} element {i}: codec {got} vs quantizer {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_encode_matches_encode_then_decode_then_compare() {
        let data = sample_data();
        for kind in FormatKind::ALL {
            for n in [4u32, 8, 12] {
                let Ok(codec) = StorageCodec::fit(kind, n, &data) else {
                    continue;
                };
                // Raw values (mostly off-grid) and their own decodes
                // (on-grid) — the two outcomes of the check.
                let grid = codec
                    .decode_slice(&codec.encode_slice(&data), DecodePolicy::Harden)
                    .0;
                for input in [&data, &grid] {
                    let codes = codec.encode_slice(input);
                    let back = codec.decode_slice(&codes, DecodePolicy::Harden).0;
                    let exact = back
                        .iter()
                        .zip(input.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    let want = exact.then_some(codes.clone());
                    assert_eq!(codec.encode_exact(input), want, "{kind} n={n}");
                    let unpacked: Vec<u32> = codes.iter().map(|c| c as u32).collect();
                    assert_eq!(codec.pack_exact(&unpacked, input), want, "{kind} n={n}");
                }
                // Either way, the on-grid decodes re-encode exactly.
                assert!(codec.encode_exact(&grid).is_some(), "{kind} n={n}");
                // A code that decodes elsewhere is refused.
                let mut wrong: Vec<u32> =
                    codec.encode_slice(&grid).iter().map(|c| c as u32).collect();
                let v0 = codec
                    .decode_slice(&codec.encode_slice(&grid[..1]), DecodePolicy::Harden)
                    .0[0];
                wrong[0] = (0..1u32 << n.min(8))
                    .find(|&c| {
                        let mut st = DecodeStats::new();
                        codec.decode_one(c, DecodePolicy::Harden, &mut st).to_bits() != v0.to_bits()
                    })
                    .expect("a code decoding elsewhere");
                assert_eq!(codec.pack_exact(&wrong, &grid), None, "{kind} n={n}");
            }
        }
    }

    #[test]
    fn from_params_rebuilds_a_bit_identical_codec() {
        let data = sample_data();
        for kind in FormatKind::ALL {
            for n in [4u32, 8] {
                let fitted = StorageCodec::fit(kind, n, &data).unwrap();
                let rebuilt = StorageCodec::from_params(kind, n, fitted.params()).unwrap();
                assert_eq!(rebuilt.kind(), kind);
                assert_eq!(rebuilt.width(), n);
                // Same codes out, same values back — warm start must be
                // indistinguishable from the original fit.
                let a = fitted.encode_slice(&data);
                let b = rebuilt.encode_slice(&data);
                assert_eq!(a, b, "{kind} n={n}: encode must be bit-identical");
                let (da, _) = fitted.decode_slice(&a, DecodePolicy::Harden);
                let (db, _) = rebuilt.decode_slice(&b, DecodePolicy::Harden);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&da), bits(&db), "{kind} n={n}: decode mismatch");
            }
        }
    }

    #[test]
    fn from_params_rejects_mismatched_variants() {
        // A Uniform scale presented as AdaptivFloat params must fail
        // typed, not build a nonsense codec.
        let err = StorageCodec::from_params(
            FormatKind::AdaptivFloat,
            8,
            PlanParams::Uniform { scale: 0.25 },
        );
        assert!(err.is_err());
        let err = StorageCodec::from_params(FormatKind::Float, 8, PlanParams::PerBlock);
        assert!(err.is_err());
    }

    #[test]
    fn hardened_decode_repairs_posit_nar() {
        let data = sample_data();
        let codec = StorageCodec::fit(FormatKind::Posit, 8, &data).unwrap();
        let mut packed = codec.encode_slice(&data);
        // Force the NaR pattern (1000_0000) into element 3.
        packed.set(3, 0x80);
        let (raw, raw_stats) = codec.decode_slice(&packed, DecodePolicy::Raw);
        assert!(raw[3].is_nan(), "raw decode must propagate NaR");
        assert_eq!(raw_stats.repaired(), 0);
        let (hard, stats) = codec.decode_slice(&packed, DecodePolicy::Harden);
        assert_eq!(hard[3], 0.0, "hardened decode must repair NaR to 0");
        assert_eq!(stats.nonfinite, 1);
    }

    #[test]
    fn hardened_decode_clamps_integer_extremes() {
        let data = sample_data();
        for kind in [FormatKind::Uniform, FormatKind::Bfp] {
            let codec = StorageCodec::fit(kind, 8, &data).unwrap();
            let mut packed = codec.encode_slice(&data);
            // 0x80 is the unused −2^(n−1) two's-complement extreme.
            packed.set(0, 0x80);
            let (_, stats) = codec.decode_slice(&packed, DecodePolicy::Harden);
            assert_eq!(
                stats.out_of_range, 1,
                "{kind}: the asymmetric extreme must be caught"
            );
        }
    }
}
