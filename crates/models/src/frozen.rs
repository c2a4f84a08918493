//! Frozen inference snapshots: the immutable, thread-shareable model
//! artifact the serving engine ships requests through.
//!
//! The training models in this crate ([`crate::MiniResNet`] & co.) are
//! `&mut self` objects carrying optimizers, data streams, and autograd
//! tapes — the wrong shape for a server that fans one `Arc`'d model out
//! across worker threads. A [`FrozenMlp`] is the deployment rendering:
//! a stack of dense layers whose weights were synthesized from the
//! paper-calibrated [`crate::ensembles`] ranges (Table 1 / Figure 1),
//! quantized **once** at registration time, with optional calibrated
//! activation quantization exactly as the paper prescribes ("informed
//! from statistics during offline batch inference", §IV).
//!
//! ## The bit-identity invariant
//!
//! [`FrozenMlp::evaluate_batch`] over any batch must produce, row for
//! row, **bit-identical** outputs to per-sample [`FrozenMlp::evaluate`]
//! — at any batch size and any `AF_NUM_THREADS`. This is what makes
//! dynamic micro-batching a pure throughput optimization: a request's
//! answer cannot depend on which other requests shared its batch. It
//! holds because every stage is row-independent: the cache-blocked
//! matmul accumulates each output element in ascending-`k` order
//! regardless of tiling or thread count, bias add and ReLU are
//! elementwise, and calibrated activation quantization is an
//! elementwise map under a *fixed* per-layer range (never a per-batch
//! statistic). `tests/frozen_batch.rs` pins the invariant.
//!
//! ## One operand per layer
//!
//! Each layer holds its weights exactly once, in the form its batched
//! kernel reads: an f32 matrix for the dense blocked matmul, or — after
//! [`FrozenMlp::with_fused_gemm`] — only the packed `n`-bit codes the
//! fused kernel decodes in-register. Nothing else keeps an f32 copy of
//! a fused layer; [`FrozenMlp::weight_data`] decodes one on demand.

use std::borrow::Cow;

use adaptivfloat::{
    par, DecodePolicy, FormatError, FormatKind, PlanParams, QuantPlan, QuantStats, StorageCodec,
};
use af_tensor::{PackedDecode, PackedGemm, PackedGemmScratch, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ensembles::EnsembleKind;
use crate::model::ModelFamily;

/// A layer's one weight operand, in the form its batched kernel reads.
#[derive(Debug, Clone)]
enum Operand {
    /// `[in, out]` row-major f32 matrix for the dense blocked matmul.
    Dense(Tensor),
    /// Packed `n`-bit codes for the fused quantized-domain GEMM
    /// ([`FrozenMlp::with_fused_gemm`]), multiplied without ever
    /// materializing the f32 matrix.
    Packed(PackedGemm),
}

/// One dense layer of a frozen network: `y = x · W + b`.
#[derive(Debug, Clone)]
struct FrozenLayer {
    /// The weights, held once.
    weight: Operand,
    /// `[in, out]`: the weight matrix's shape.
    shape: [usize; 2],
    /// `[out]` bias (kept FP32, as is conventional).
    bias: Tensor,
}

impl FrozenLayer {
    /// A layer multiplying by the `[in, out]` matrix `weight`.
    fn dense(weight: Tensor, bias: Tensor) -> FrozenLayer {
        let shape = [weight.shape()[0], weight.shape()[1]];
        FrozenLayer {
            weight: Operand::Dense(weight),
            shape,
            bias,
        }
    }

    /// The weight matrix as a tensor: borrowed when dense, decoded
    /// through the codebook when packed.
    fn matrix(&self) -> Cow<'_, Tensor> {
        match &self.weight {
            Operand::Dense(w) => Cow::Borrowed(w),
            Operand::Packed(pg) => Cow::Owned(Tensor::from_vec(pg.dequantize(), &self.shape)),
        }
    }

    /// The weight values, row-major: borrowed when dense, decoded
    /// through the codebook when packed.
    fn values(&self) -> Cow<'_, [f32]> {
        match &self.weight {
            Operand::Dense(w) => Cow::Borrowed(w.data()),
            Operand::Packed(pg) => Cow::Owned(pg.dequantize()),
        }
    }
}

/// Calibrated activation quantization: one format applied to every
/// layer input under a fixed per-layer range.
#[derive(Debug, Clone)]
struct ActQuant {
    /// The activation format's display name.
    format_name: String,
    /// One frozen [`QuantPlan`] per layer, built once at calibration
    /// time from the layer input's abs-max; execution never re-derives
    /// parameters or touches the codebook cache.
    plans: Vec<QuantPlan>,
    /// The format geometry the plans were built through — the portable
    /// half of the recipe a durable store persists.
    kind: FormatKind,
    n: u32,
    /// The frozen per-layer abs-max ranges. Re-planning from these via
    /// [`FrozenMlp::with_act_quant_frozen`] reproduces the plans
    /// bit-identically without rerunning the calibration forward pass.
    maxes: Vec<f32>,
}

/// An immutable feed-forward inference snapshot (ReLU MLP).
///
/// Construction is a builder chain, mirroring a serving registry's
/// load path: [`synthesize`](FrozenMlp::synthesize) →
/// [`quantize_weights`](FrozenMlp::quantize_weights) →
/// [`with_act_quant`](FrozenMlp::with_act_quant) →
/// [`prewarm_codebooks`](FrozenMlp::prewarm_codebooks).
///
/// Cloning deep-copies the weight operands and frozen plans; servers
/// share one snapshot across replicas behind an `Arc` instead.
#[derive(Debug, Clone)]
pub struct FrozenMlp {
    family: ModelFamily,
    format: String,
    layers: Vec<FrozenLayer>,
    act: Option<ActQuant>,
    /// The weight-quantization recipe: one frozen codec per layer, set
    /// by [`quantize_weights`](FrozenMlp::quantize_weights) and
    /// [`with_quantized_weights`](FrozenMlp::with_quantized_weights).
    /// It is what lets [`with_fused_gemm`](FrozenMlp::with_fused_gemm)
    /// re-encode the (already quantized) weights into exact packed codes
    /// after the fact. `None` for FP32 or externally-swapped weights.
    weight_codecs: Option<Vec<StorageCodec>>,
}

/// Re-encode one layer's served weights `w` (row-major, `[k, n_cols]`)
/// into the packed codes of the layer's frozen `codec`.
///
/// # Panics
///
/// Panics if the codec is wider than 8 bits, if it is not 4 or 8 bits
/// wide, or if any code fails to decode back to its weight's exact bit
/// pattern.
fn pack_layer(codec: &StorageCodec, [k, n_cols]: [usize; 2], w: &[f32]) -> PackedGemm {
    // One codebook lookup per weight gives its code; the decode table
    // is the same index's raw decode of every code.
    let index = codec.index().expect("fused codecs are at most 8 bits wide");
    let codes = codec.encode_codes(w);
    let table = index.values(DecodePolicy::Raw);
    // The bit-identity keystone: every packed code must decode to
    // exactly the f32 the dense path serves. Scan for the first
    // mismatch; only a failure formats its message.
    let decodes_to = |v: f32, c: u32| table[c as usize].to_bits() == v.to_bits();
    if let Some(i) = w.iter().zip(&codes).position(|(&v, &c)| !decodes_to(v, c)) {
        let (v, c) = (w[i], codes[i]);
        assert_eq!(
            table[c as usize].to_bits(),
            v.to_bits(),
            "weight {i} re-encode mismatch: {v} -> code {c} -> {}",
            table[c as usize]
        );
    }
    PackedGemm::build(k, n_cols, codec.width(), &codes, table, PackedDecode::Table)
}

fn ensemble_kind(family: ModelFamily) -> EnsembleKind {
    match family {
        ModelFamily::Transformer => EnsembleKind::Transformer,
        ModelFamily::Seq2Seq => EnsembleKind::Seq2Seq,
        ModelFamily::ResNet => EnsembleKind::ResNet50,
    }
}

impl FrozenMlp {
    /// Synthesize an FP32 snapshot with layer widths `dims`
    /// (`dims[0]` inputs → `dims.last()` outputs) whose per-layer weight
    /// distributions follow the family's paper-calibrated ensemble.
    /// Deterministic under `(family, seed, dims)`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries or any zero width.
    pub fn synthesize(family: ModelFamily, seed: u64, dims: &[usize]) -> FrozenMlp {
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        // Every layer draws the widest layer's worth of weights and keeps
        // its own `cin · cout` prefix.
        let kept: Vec<usize> = dims.windows(2).map(|w| w[0] * w[1]).collect();
        let layer_size = kept
            .iter()
            .copied()
            .max()
            .expect("at least one layer")
            .max(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let ensemble = ensemble_kind(family).generate(&mut rng, layer_size, &kept);
        let layers = ensemble
            .layers
            .into_iter()
            .zip(dims.windows(2))
            .map(|((_, w), d)| {
                let (cin, cout) = (d[0], d[1]);
                let bias: Vec<f32> = (0..cout).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
                FrozenLayer::dense(
                    Tensor::from_vec(w, &[cin, cout]),
                    Tensor::from_vec(bias, &[cout]),
                )
            })
            .collect();
        FrozenMlp {
            family,
            format: "fp32".to_string(),
            layers,
            act: None,
            weight_codecs: None,
        }
    }

    /// A deterministic input batch (`rows × in_dim`, values in ±2) —
    /// used for activation calibration, tests, and load generation.
    pub fn synth_inputs(seed: u64, rows: usize, in_dim: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * in_dim)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        Tensor::from_vec(data, &[rows, in_dim])
    }

    /// Quantize every weight matrix per-tensor through `kind` at word
    /// size `n` (the registration-time PTQ step, on the calling thread;
    /// biases stay FP32). Call before
    /// [`with_act_quant`](Self::with_act_quant).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if the format cannot be
    /// built at `n`.
    ///
    /// # Panics
    ///
    /// Panics if activation quantization is already installed (weights
    /// must be frozen before activation ranges are calibrated).
    pub fn quantize_weights(self, kind: FormatKind, n: u32) -> Result<FrozenMlp, FormatError> {
        assert!(
            self.act.is_none(),
            "quantize weights before calibrating activations"
        );
        let fmt = kind.build(n)?;
        let mut codecs = Vec::with_capacity(self.layers.len());
        let mut layers = Vec::with_capacity(self.layers.len());
        for l in self.layers {
            // Quantized where it sits: the layer's own matrix becomes
            // the served one.
            let mut w = match l.weight {
                Operand::Dense(w) => w,
                Operand::Packed(pg) => Tensor::from_vec(pg.dequantize(), &l.shape),
            };
            let plan = fmt.plan(&QuantStats::from_slice(w.data()));
            codecs.push(StorageCodec::from_params(kind, n, *plan.params())?);
            par::serial(|| plan.execute_in_place(w.data_mut()));
            layers.push(FrozenLayer::dense(w, l.bias));
        }
        Ok(FrozenMlp {
            family: self.family,
            format: fmt.name(),
            layers,
            act: self.act,
            weight_codecs: Some(codecs),
        })
    }

    /// Switch every layer to the fused quantized-domain GEMM: each
    /// weight matrix is re-encoded into its `n`-bit codes and kept
    /// packed (`n/8` bytes per weight instead of 4), decoded on the fly
    /// inside the matmul microkernel. Batched evaluation stays
    /// **bit-identical** — the packed kernel reproduces the dense
    /// blocked matmul's ascending-`k` accumulation exactly, and every
    /// re-encoded code is verified to decode back to the served weight's
    /// bit pattern here (any violation panics rather than serving
    /// subtly different results). Once a layer passes that check its
    /// f32 matrix is dropped: the packed codes are the layer's only
    /// weight copy.
    ///
    /// Supported: [`FormatKind::AdaptivFloat`] and
    /// [`FormatKind::Uniform`] weights at `n ∈ {4, 8}` (see
    /// [`fuses`](Self::fuses): the kernel decodes any 4- or 8-bit
    /// codebook; the kind restriction is policy). The per-sample
    /// [`evaluate`](Self::evaluate) reference multiplies by the values
    /// the codebook decodes the codes to, in its own naive loop, so the
    /// batch-vs-reference bit-identity tests still cross-check the fused
    /// kernel end to end.
    ///
    /// # Panics
    ///
    /// Panics if the weights were not quantized through
    /// [`quantize_weights`](Self::quantize_weights) (FP32 or swapped-in
    /// weights carry no encoding recipe), if the format/word size is
    /// unsupported, or if any weight fails the exact re-encode check.
    pub fn with_fused_gemm(mut self) -> FrozenMlp {
        let codecs = self
            .weight_codecs
            .as_ref()
            .expect("fused GEMM needs quantize_weights first (no recipe on these weights)");
        for (layer, codec) in self.layers.iter_mut().zip(codecs) {
            assert!(
                FrozenMlp::fuses(codec.kind(), codec.width()),
                "fused GEMM packs 4- or 8-bit AdaptivFloat or Uniform codes, not {}-bit {}",
                codec.width(),
                codec.kind()
            );
            // The f32 matrix (a temporary here) is dropped once packed.
            let packed = pack_layer(codec, layer.shape, &layer.values());
            layer.weight = Operand::Packed(packed);
        }
        self
    }

    /// Whether [`with_fused_gemm`](Self::with_fused_gemm) packs weights
    /// quantized through `kind` at word size `n`: AdaptivFloat or
    /// Uniform codes at `n ∈ {4, 8}`. The kernel itself decodes any 4-
    /// or 8-bit codebook through a table; limiting the kinds is policy,
    /// and registration and restore refuse what this refuses.
    pub fn fuses(kind: FormatKind, n: u32) -> bool {
        matches!(kind, FormatKind::AdaptivFloat | FormatKind::Uniform) && (n == 4 || n == 8)
    }

    /// How many layers run the fused quantized-domain GEMM.
    pub fn fused_layers(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l.weight, Operand::Packed(_)))
            .count()
    }

    /// Bytes of weight storage the batched path streams per request:
    /// packed code bytes for fused layers, `4 · k · n` f32 bytes for
    /// dense ones (biases excluded — both paths read them identically).
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match &l.weight {
                Operand::Packed(pg) => pg.packed_bytes(),
                Operand::Dense(w) => 4 * w.len(),
            })
            .sum()
    }

    /// Install calibrated activation quantization: run `calib` (a
    /// `[rows, in_dim]` batch) through the network once, record each
    /// layer input's abs-max, and quantize every layer input through
    /// `kind` at word size `n` under those fixed ranges from then on.
    /// The calibration pass runs on the calling thread, like every
    /// registration step (see [`adaptivfloat::par::serial`]).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if the format cannot be
    /// built at `n`.
    pub fn with_act_quant(
        self,
        kind: FormatKind,
        n: u32,
        calib: &Tensor,
    ) -> Result<FrozenMlp, FormatError> {
        let last = self.layers.len() - 1;
        let mut max = Vec::with_capacity(self.layers.len());
        let mut x = calib.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            max.push(x.abs_max().max(f32::MIN_POSITIVE));
            // The last layer's output feeds no range.
            if l == last {
                break;
            }
            x = par::serial(|| x.matmul(&layer.matrix()))
                .add_row(&layer.bias)
                .map(|v| v.max(0.0));
        }
        self.with_act_quant_frozen(kind, n, &max)
    }

    /// Install activation quantization from already-frozen per-layer
    /// ranges — the warm-start path a durable store uses on recovery.
    /// Builds exactly the plans [`with_act_quant`](Self::with_act_quant)
    /// would have built from the same ranges (same
    /// `QuantStats::calibrated` construction), skipping only the
    /// calibration forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if the format cannot be
    /// built at `n`.
    ///
    /// # Panics
    ///
    /// Panics if `maxes.len()` differs from the layer count.
    pub fn with_act_quant_frozen(
        mut self,
        kind: FormatKind,
        n: u32,
        maxes: &[f32],
    ) -> Result<FrozenMlp, FormatError> {
        assert_eq!(
            maxes.len(),
            self.layers.len(),
            "one calibrated range per layer"
        );
        let fmt = kind.build(n)?;
        // Freeze one plan per layer now; every later evaluate call just
        // executes it (and any LUT codebook it needs is resolved here,
        // so the serving hot path never takes the cache lock).
        let plans = maxes
            .iter()
            .map(|&m| fmt.plan(&QuantStats::calibrated(m)))
            .collect();
        self.act = Some(ActQuant {
            format_name: fmt.name(),
            plans,
            kind,
            n,
            maxes: maxes.to_vec(),
        });
        Ok(self)
    }

    /// The frozen activation-quantization recipe: format kind, word
    /// size, and the calibrated per-layer ranges. `None` until
    /// [`with_act_quant`](Self::with_act_quant) runs. Persisting this
    /// and replaying it through
    /// [`with_act_quant_frozen`](Self::with_act_quant_frozen) restores
    /// activation quantization without recalibrating.
    pub fn act_recipe(&self) -> Option<(FormatKind, u32, &[f32])> {
        self.act.as_ref().map(|a| (a.kind, a.n, a.maxes.as_slice()))
    }

    /// The weight-quantization recipe: one frozen codec per layer, the
    /// codes of layer `l` being `weight_codecs()[l]`'s encoding of
    /// [`weight_data`](Self::weight_data)`(l)`. `None` for FP32 or
    /// externally-swapped weights.
    pub fn weight_codecs(&self) -> Option<&[StorageCodec]> {
        self.weight_codecs.as_deref()
    }

    /// [`weight_codecs`](Self::weight_codecs) as format kind, word size
    /// and each layer's frozen per-tensor parameters.
    pub fn weight_quant_recipe(&self) -> Option<(FormatKind, u32, Vec<PlanParams>)> {
        let codecs = self.weight_codecs()?;
        let params = codecs.iter().map(StorageCodec::params).collect();
        Some((codecs[0].kind(), codecs[0].width(), params))
    }

    /// Pre-build the LUT codebooks the activation-quantization path will
    /// need, so no request ever pays a codebook build (or the cache's
    /// write lock). Returns how many layers report a warm codebook path.
    pub fn prewarm_codebooks(&self) -> usize {
        match &self.act {
            None => 0,
            // Plans were frozen at calibration time, which already built
            // (and cached) any codebook they reference — counting warm
            // layers is now a pure inspection.
            Some(act) => act.plans.iter().filter(|p| p.uses_codebook()).count(),
        }
    }

    /// The model family whose weight distribution this snapshot carries.
    pub fn family(&self) -> ModelFamily {
        self.family
    }

    /// The weight format name (`"fp32"` until quantized).
    pub fn format_name(&self) -> &str {
        &self.format
    }

    /// The activation format name, if activation quantization is on.
    pub fn act_format_name(&self) -> Option<String> {
        self.act.as_ref().map(|a| a.format_name.clone())
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].shape[0]
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].shape[1]
    }

    /// Number of dense layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Layer `l`'s weight matrix: its row-major values and `[in, out]`
    /// shape. A dense layer lends its matrix; a fused layer has no f32
    /// matrix, so its values are decoded from the packed codes through
    /// the codebook on each call (bit-identical to the weights it was
    /// fused from). This is the surface a protected weight store encodes
    /// its codes from and a durable store exports.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.depth()`.
    pub fn weight_data(&self, l: usize) -> (Cow<'_, [f32]>, &[usize]) {
        let layer = &self.layers[l];
        (layer.values(), &layer.shape)
    }

    /// Layer `l`'s weight codes (row-major), when the layer is fused:
    /// the packed operand's codes under the weight recipe, which decode
    /// to [`weight_data`](Self::weight_data). `None` for a dense layer.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.depth()`.
    pub fn weight_codes(&self, l: usize) -> Option<Vec<u32>> {
        match &self.layers[l].weight {
            Operand::Dense(_) => None,
            Operand::Packed(pg) => Some(pg.codes()),
        }
    }

    /// Layer `l`'s `[in, out]` weight shape, without touching its
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.depth()`.
    pub fn weight_shape(&self, l: usize) -> &[usize] {
        &self.layers[l].shape
    }

    /// Replace every weight matrix with externally-supplied values (one
    /// `Vec<f32>` per layer, matching the existing shapes) and relabel
    /// the weight format — the re-entry point for weights that carry no
    /// encoding recipe, such as lossless f32 values read back from a
    /// container. Biases are untouched. Quantized values decoded from
    /// codes re-enter through
    /// [`with_quantized_weights`](Self::with_quantized_weights) instead.
    ///
    /// # Panics
    ///
    /// Panics if activation quantization is already installed (weight
    /// swaps must precede calibration, like
    /// [`quantize_weights`](Self::quantize_weights)), or if the layer
    /// count or any layer's element count mismatches.
    pub fn with_weight_data(self, weights: Vec<Vec<f32>>, format: &str) -> FrozenMlp {
        assert!(
            self.act.is_none(),
            "swap weights before calibrating activations"
        );
        assert_eq!(weights.len(), self.layers.len(), "layer count mismatch");
        let layers = self
            .layers
            .into_iter()
            .zip(weights)
            .map(|(l, w)| {
                let shape = l.shape;
                assert_eq!(
                    w.len(),
                    shape[0] * shape[1],
                    "weight element count mismatch for shape {shape:?}"
                );
                FrozenLayer::dense(Tensor::from_vec(w, &shape), l.bias)
            })
            .collect();
        FrozenMlp {
            family: self.family,
            format: format.to_string(),
            layers,
            act: self.act,
            // Externally-decoded weights carry no encoding recipe, so a
            // later with_fused_gemm must (and does) refuse them.
            weight_codecs: None,
        }
    }

    /// Replace every weight matrix with externally-supplied
    /// already-quantized values *and* reinstate the per-layer codecs that
    /// produced them — the warm-start counterpart of
    /// [`quantize_weights`](Self::quantize_weights). Because the recipe
    /// survives, [`with_fused_gemm`](Self::with_fused_gemm) works on the
    /// restored snapshot (its exact re-encode check still verifies every
    /// weight against its layer's codec).
    ///
    /// # Panics
    ///
    /// Panics if activation quantization is already installed, or if the
    /// layer count, any layer's element count, or the codec count
    /// mismatches.
    pub fn with_quantized_weights(
        self,
        codecs: Vec<StorageCodec>,
        weights: Vec<Vec<f32>>,
        format: &str,
    ) -> FrozenMlp {
        assert_eq!(codecs.len(), self.layers.len(), "one codec per layer");
        let mut restored = self.with_weight_data(weights, format);
        restored.weight_codecs = Some(codecs);
        restored
    }

    /// Total scalar parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.shape[0] * l.shape[1] + l.bias.len())
            .sum()
    }

    /// Per-sample forward pass — the serving reference semantics.
    ///
    /// Implemented as an independent naive loop (ascending-`k`
    /// accumulation per output element) over each layer's weight values
    /// rather than by delegating to
    /// [`evaluate_batch`](Self::evaluate_batch), so the batch path's
    /// bit-identity is checked against separately-written code. A fused
    /// layer's values are decoded from its packed codes through the
    /// codebook ([`weight_data`](Self::weight_data)), never by the fused
    /// kernel's in-register decoder, so the reference still cross-checks
    /// that kernel — at the cost of one decode per fused layer per call.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.in_dim()`.
    pub fn evaluate(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.in_dim(), "input width mismatch");
        let last = self.layers.len() - 1;
        let mut x = input.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            if let Some(act) = &self.act {
                x = act.plans[l].execute(&x);
            }
            let out = layer.shape[1];
            let w = layer.values();
            let mut y = vec![0.0f32; out];
            for (p, &a) in x.iter().enumerate() {
                let w_row = &w[p * out..(p + 1) * out];
                for (o, &wv) in y.iter_mut().zip(w_row) {
                    *o += a * wv;
                }
            }
            for (o, &b) in y.iter_mut().zip(layer.bias.data()) {
                *o += b;
            }
            if l < last {
                for o in y.iter_mut() {
                    *o = o.max(0.0);
                }
            }
            x = y;
        }
        x
    }

    /// Batched forward pass over `[batch, in_dim]` inputs — one blocked
    /// matmul per layer. Row `i` of the result is bit-identical to
    /// `self.evaluate(inputs.row(i))` at any batch size and thread count
    /// (see the module docs for why).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not rank 2 with `in_dim` columns.
    pub fn evaluate_batch(&self, inputs: &Tensor) -> Tensor {
        assert_eq!(inputs.rank(), 2, "inputs must be [batch, in_dim]");
        assert_eq!(inputs.cols(), self.in_dim(), "input width mismatch");
        let rows = inputs.rows();
        let mut scratch = BatchScratch::new();
        let out = self.evaluate_batch_into(inputs.data(), rows, &mut scratch);
        Tensor::from_vec(out.to_vec(), &[rows, self.out_dim()])
    }

    /// The widest `rows × width` buffer any stage of a `rows`-row batch
    /// needs.
    fn scratch_len(&self, rows: usize) -> usize {
        let widest = self
            .layers
            .iter()
            .flat_map(|l| l.shape)
            .max()
            .expect("at least one layer");
        rows * widest
    }

    /// Batched forward pass into caller-owned scratch — the serving hot
    /// path. Bit-identical to [`evaluate_batch`](Self::evaluate_batch)
    /// (which delegates here); performs **zero heap allocations** once
    /// `scratch` has grown to this model's widest stage (quantization
    /// executes frozen plans in place, each matmul writes into the
    /// ping-pong buffer, bias/ReLU are in-place) and spawns no thread:
    /// the engine already runs one compute worker per core, so every
    /// GEMM stays on the calling one. The returned slice
    /// (`rows × out_dim`, borrowed from `scratch`) is valid until the
    /// next call.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows * self.in_dim()`.
    pub fn evaluate_batch_into<'s>(
        &self,
        inputs: &[f32],
        rows: usize,
        scratch: &'s mut BatchScratch,
    ) -> &'s [f32] {
        par::serial(move || self.forward_into(inputs, rows, scratch))
    }

    /// [`evaluate_batch_into`](Self::evaluate_batch_into)'s pass.
    fn forward_into<'s>(
        &self,
        inputs: &[f32],
        rows: usize,
        scratch: &'s mut BatchScratch,
    ) -> &'s [f32] {
        assert_eq!(inputs.len(), rows * self.in_dim(), "input width mismatch");
        let last = self.layers.len() - 1;
        scratch.reserve(self.scratch_len(rows));
        let BatchScratch { a, b, packed } = scratch;
        let (mut cur, mut nxt) = (a, b);
        let mut width = self.in_dim();
        cur[..rows * width].copy_from_slice(inputs);
        for (l, layer) in self.layers.iter().enumerate() {
            let out_w = layer.shape[1];
            if let Some(act) = &self.act {
                act.plans[l].execute_in_place(&mut cur[..rows * width]);
            }
            match &layer.weight {
                // Fused path: decode packed codes inside the kernel —
                // bit-identical to the dense matmul below (pinned by
                // tests/fused_gemm.rs), reading width/8 of the bytes.
                Operand::Packed(pg) => {
                    pg.matmul_into(&cur[..rows * width], rows, &mut nxt[..rows * out_w], packed)
                }
                Operand::Dense(w) => Tensor::matmul_slice_into(
                    &cur[..rows * width],
                    rows,
                    width,
                    w,
                    &mut nxt[..rows * out_w],
                ),
            }
            for row in nxt[..rows * out_w].chunks_mut(out_w) {
                for (o, &b) in row.iter_mut().zip(layer.bias.data()) {
                    *o += b;
                }
            }
            if l < last {
                for o in nxt[..rows * out_w].iter_mut() {
                    *o = o.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
            width = out_w;
        }
        &cur[..rows * width]
    }
}

/// Reusable ping-pong buffers for [`FrozenMlp::evaluate_batch_into`].
///
/// Grows (once) to the widest stage it has seen and never shrinks, so a
/// long-lived worker thread reaches a steady state with no per-request
/// heap traffic.
#[derive(Debug, Default)]
pub struct BatchScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    /// Decode tile for fused packed-GEMM layers (unused — and unsized —
    /// on dense-only models).
    packed: PackedGemmScratch,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Ensure both buffers hold at least `len` elements.
    fn reserve(&mut self, len: usize) {
        if self.a.len() < len {
            self.a.resize(len, 0.0);
        }
        if self.b.len() < len {
            self.b.resize(len, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_is_deterministic_and_shaped() {
        let a = FrozenMlp::synthesize(ModelFamily::ResNet, 9, &[12, 20, 6]);
        let b = FrozenMlp::synthesize(ModelFamily::ResNet, 9, &[12, 20, 6]);
        assert_eq!(a.in_dim(), 12);
        assert_eq!(a.out_dim(), 6);
        assert_eq!(a.depth(), 2);
        assert_eq!(a.param_count(), 12 * 20 + 20 + 20 * 6 + 6);
        let x = FrozenMlp::synth_inputs(3, 1, 12);
        assert_eq!(a.evaluate(x.row(0)), b.evaluate(x.row(0)));
        // Different seed, different weights.
        let c = FrozenMlp::synthesize(ModelFamily::ResNet, 10, &[12, 20, 6]);
        assert_ne!(a.evaluate(x.row(0)), c.evaluate(x.row(0)));
    }

    #[test]
    fn quantized_weights_change_outputs_but_stay_deterministic() {
        let base = FrozenMlp::synthesize(ModelFamily::Transformer, 4, &[16, 24, 8]);
        let x = FrozenMlp::synth_inputs(5, 1, 16);
        let fp32 = base.evaluate(x.row(0));
        let q = FrozenMlp::synthesize(ModelFamily::Transformer, 4, &[16, 24, 8])
            .quantize_weights(FormatKind::AdaptivFloat, 4)
            .unwrap();
        assert_eq!(q.format_name(), "AdaptivFloat<4,3>");
        let ql = q.evaluate(x.row(0));
        assert_ne!(fp32, ql, "4-bit weights must perturb the outputs");
        assert_eq!(ql, q.evaluate(x.row(0)));
    }

    #[test]
    fn act_quant_calibration_is_deterministic() {
        let build = || {
            let calib = FrozenMlp::synth_inputs(77, 16, 10);
            FrozenMlp::synthesize(ModelFamily::Seq2Seq, 8, &[10, 32, 4])
                .quantize_weights(FormatKind::Uniform, 8)
                .unwrap()
                .with_act_quant(FormatKind::Uniform, 8, &calib)
                .unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.act_format_name().as_deref(), Some("Uniform<8>"));
        let x = FrozenMlp::synth_inputs(6, 1, 10);
        let (ya, yb) = (a.evaluate(x.row(0)), b.evaluate(x.row(0)));
        assert_eq!(ya, yb);
        assert!(a.prewarm_codebooks() > 0);
    }

    #[test]
    fn weight_swap_roundtrips_and_relabels() {
        let m = FrozenMlp::synthesize(ModelFamily::ResNet, 21, &[10, 14, 4]);
        let x = FrozenMlp::synth_inputs(2, 1, 10);
        let want = m.evaluate(x.row(0));
        // Read out every layer's weights and feed them straight back:
        // the rebuilt model must be bit-identical.
        let weights: Vec<Vec<f32>> = (0..m.depth())
            .map(|l| m.weight_data(l).0.to_vec())
            .collect();
        let same = FrozenMlp::synthesize(ModelFamily::ResNet, 21, &[10, 14, 4])
            .with_weight_data(weights.clone(), "decoded-fp32");
        assert_eq!(same.format_name(), "decoded-fp32");
        let got = same.evaluate(x.row(0));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // Perturbed weights change the outputs (the swap is real).
        let mut bent = weights;
        bent[0][0] += 1.0;
        let other = FrozenMlp::synthesize(ModelFamily::ResNet, 21, &[10, 14, 4])
            .with_weight_data(bent, "bent");
        assert_ne!(other.evaluate(x.row(0)), want);
    }

    /// FNV-1a over the bit patterns of every weight and bias, layer by
    /// layer.
    fn synthesis_hash(m: &FrozenMlp) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (l, layer) in m.layers.iter().enumerate() {
            for v in m.weight_data(l).0.iter().chain(layer.bias.data()) {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        h
    }

    #[test]
    fn synthesis_is_pinned_bit_for_bit() {
        // The hashes pin what a full Box–Muller pass over every draw
        // produces, so skipping the transform for discarded draws must
        // not move them; a change to the RNG stream, the draw order or
        // the pinned extremes does. [1, 1, 1] keeps one weight per
        // layer, fewer than the two pinned extremes.
        const SERVED: &[usize] = &[96, 192, 192, 48];
        const FLEET: &[usize] = &[64, 128, 128, 32];
        const TINY: &[usize] = &[1, 1, 1];
        let golden = [
            (ModelFamily::Transformer, SERVED, 0x8a4b_6ad1_fbdc_7839u64),
            (ModelFamily::Seq2Seq, SERVED, 0xc55f_9854_c626_708a),
            (ModelFamily::ResNet, SERVED, 0x4f6e_c6cd_de00_a159),
            (ModelFamily::Transformer, FLEET, 0xfc07_8010_7225_63ee),
            (ModelFamily::Seq2Seq, FLEET, 0x1ebd_6335_d9db_0253),
            (ModelFamily::ResNet, FLEET, 0x9d22_f364_6f7a_0f84),
            (ModelFamily::Transformer, TINY, 0x3ff7_4066_18e5_206b),
            (ModelFamily::Seq2Seq, TINY, 0x22f6_b41c_0991_801b),
            (ModelFamily::ResNet, TINY, 0xe3f3_5f22_89b0_f64e),
        ];
        for (family, dims, want) in golden {
            let got = synthesis_hash(&FrozenMlp::synthesize(family, 0x5E12_F00D, dims));
            assert_eq!(got, want, "{family:?} {dims:?}: synthesis moved");
        }
    }

    #[test]
    #[should_panic(expected = "element count mismatch")]
    fn weight_swap_rejects_wrong_shape() {
        let m = FrozenMlp::synthesize(ModelFamily::ResNet, 1, &[8, 4]);
        m.with_weight_data(vec![vec![0.0; 3]], "bad");
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_rejected() {
        let m = FrozenMlp::synthesize(ModelFamily::ResNet, 1, &[8, 4]);
        m.evaluate(&[0.0; 7]);
    }
}
