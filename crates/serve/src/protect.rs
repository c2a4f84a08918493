//! The protected weight store: each registered variant's weight layers
//! as [`StoredLayer`]s — a layer's frozen [`StorageCodec`] over its
//! SEC-DED protected codes ([`af_resilience::ProtectedCodes`]), the
//! same layers a container persists and restore hands back — and
//! nothing else. The store keeps no f32 copy of the weights.
//!
//! The serving snapshot is always **built from what the storage
//! decodes to** (never from a separate quantization pass), so after a
//! scrub repairs a single-bit upset the storage decodes to exactly the
//! weights already being served — responses stay bit-identical. When a
//! double-bit upset makes a word uncorrectable, the owner re-encodes
//! the storage from the variant's FP32 checkpoint
//! ([`rebuild_from_checkpoint`](ProtectedWeights::rebuild_from_checkpoint))
//! and hot-swaps a fresh snapshot. The checkpoint is not held here: the
//! registry copies it from a resident FP32 twin or synthesizes it again
//! from the spec, on that rare path only.

use adaptivfloat::{DecodePolicy, FormatError, FormatKind, PackedCodes, StorageCodec};
use af_models::FrozenMlp;
use af_resilience::{inject_protected_bits, EccStats, FaultMap, ProtectedCodes};
use af_resilience::{ScrubReport, CODEWORD_BITS};
use af_store::StoredLayer;

/// Fit a storage codec to an FP32 weight tensor and encode it in one
/// pass: each weight's code is one lookup in the codec's codebook, equal
/// to per-element `encode_one`.
fn fit_and_encode(
    kind: FormatKind,
    n: u32,
    weights: &[f32],
) -> Result<(StorageCodec, PackedCodes), FormatError> {
    let codec = StorageCodec::fit(kind, n, weights)?;
    let codes = codec.encode_slice(weights);
    Ok((codec, codes))
}

/// Layer `l` of `model` stored as `codes` under `codec` (`None`: raw
/// f32).
pub(crate) fn stored_layer(
    model: &FrozenMlp,
    l: usize,
    codec: Option<StorageCodec>,
    codes: ProtectedCodes,
) -> StoredLayer {
    let shape = model.weight_shape(l);
    StoredLayer {
        rows: shape[0],
        cols: shape[1],
        codec,
        codes,
    }
}

/// The codec a protected layer's codes decode under.
fn coded(layer: &StoredLayer) -> &StorageCodec {
    layer
        .codec
        .as_ref()
        .expect("every protected layer is coded")
}

/// SEC-DED protected storage for every weight tensor of one variant.
#[derive(Debug, Clone)]
pub struct ProtectedWeights {
    format_label: String,
    /// Every layer coded, its codes packed at its codec's width.
    layers: Vec<StoredLayer>,
    rebuilds: u64,
}

impl ProtectedWeights {
    /// Encode `model`'s (FP32 checkpoint) weight tensors through `kind`
    /// at word size `n` into protected storage. Also returns what the
    /// fresh storage decodes to, one value vector per layer: the
    /// [`decoded_weights`](Self::decoded_weights) of the new store.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if the format cannot be
    /// built at `n`.
    pub fn build(
        model: &FrozenMlp,
        kind: FormatKind,
        n: u32,
    ) -> Result<(ProtectedWeights, Vec<Vec<f32>>), FormatError> {
        let format_label = format!("{}+secded", kind.build(n)?.name());
        let mut values = Vec::with_capacity(model.depth());
        let layers = (0..model.depth())
            .map(|l| {
                let (codec, codes) = fit_and_encode(kind, n, &model.weight_data(l).0)?;
                let (vals, _) = codec.decode_slice(&codes, DecodePolicy::Harden);
                values.push(vals);
                let codes = ProtectedCodes::protect(codes);
                Ok(stored_layer(model, l, Some(codec), codes))
            })
            .collect::<Result<Vec<_>, FormatError>>()?;
        let store = ProtectedWeights {
            format_label,
            layers,
            rebuilds: 0,
        };
        Ok((store, values))
    }

    /// Rebuild a store from persisted layers, plus the label and
    /// rebuild counter the container preserved.
    ///
    /// # Panics
    ///
    /// Panics if a layer is raw f32 or packs its codes at another width
    /// than its codec's (restore refuses both before it gets here).
    pub fn restore(
        format_label: &str,
        rebuilds: u64,
        layers: Vec<StoredLayer>,
    ) -> ProtectedWeights {
        assert!(
            layers
                .iter()
                .all(|l| l.codec.is_some() && l.check_width().is_ok()),
            "protected layers must be coded at their codec's width"
        );
        ProtectedWeights {
            format_label: format_label.to_string(),
            layers,
            rebuilds,
        }
    }

    /// The weight-format label served snapshots carry, e.g.
    /// `"AdaptivFloat<8,3>+secded"`.
    pub fn format_label(&self) -> &str {
        &self.format_label
    }

    /// The stored layers: each one's codec and its protected codes *as
    /// stored* — latent single-bit faults and ECC history included,
    /// exactly what a durable store must persist.
    pub fn layers(&self) -> &[StoredLayer] {
        &self.layers
    }

    /// The codecs the stored codes were encoded under, one per layer —
    /// what [`FrozenMlp::quantize_weights`] records for the same
    /// checkpoint.
    pub(crate) fn codecs(&self) -> Vec<StorageCodec> {
        self.layers.iter().map(|l| coded(l).clone()).collect()
    }

    /// Number of protected weight tensors (model depth).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Raw 64-bit storage words behind layer `l` (each word carries
    /// [`CODEWORD_BITS`]`− 64` parity bits alongside).
    pub fn raw_words(&self, l: usize) -> usize {
        self.layers[l].codes.raw_words()
    }

    /// Total protected storage bits of layer `l` — the element count a
    /// width-1 [`FaultMap`] for [`inject_bits`](Self::inject_bits) must
    /// be sampled over.
    pub fn storage_bits(&self, l: usize) -> usize {
        self.raw_words(l) * CODEWORD_BITS as usize
    }

    /// Times an uncorrectable error forced a re-encode from the
    /// checkpoint.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Cumulative ECC counters summed over every layer's store.
    pub fn ecc_stats(&self) -> EccStats {
        let mut total = EccStats::default();
        for layer in &self.layers {
            total.absorb(&layer.codes.stats());
        }
        // Every layer is swept in the same pass; report pass count once.
        if let Some(layer) = self.layers.first() {
            total.scrub_passes = layer.codes.stats().scrub_passes;
        }
        total
    }

    /// Decode every layer from (possibly corrupted) storage: single-bit
    /// errors corrected in the read, uncorrectable words passed through
    /// raw, values decoded under the hardened policy. Returns the f32
    /// weights per layer and the aggregate report.
    pub fn decoded_weights(&self) -> (Vec<Vec<f32>>, ScrubReport) {
        let mut total = ScrubReport::default();
        let weights = self
            .layers
            .iter()
            .map(|layer| {
                let (vals, report) = layer
                    .decode_values()
                    .expect("protected codes are packed at their codec's width");
                total.absorb(&report);
                vals
            })
            .collect();
        (weights, total)
    }

    /// Sweep every layer's storage once, repairing correctable errors
    /// in place. Returns the aggregate report; a nonzero
    /// `uncorrectable` means the owner must
    /// [`rebuild_from_checkpoint`](Self::rebuild_from_checkpoint).
    pub fn scrub(&mut self) -> ScrubReport {
        let mut total = ScrubReport::default();
        for layer in &mut self.layers {
            total.absorb(&layer.codes.scrub());
        }
        total
    }

    /// Re-encode every layer's storage from `checkpoint`, the FP32
    /// model this store was [`build`](Self::build)t from (the same
    /// `(family, seed, dims)` synthesis) — the recovery path for
    /// uncorrectable errors. The codes come out bit-identical to the
    /// original encoding. Cumulative ECC counters carry over (the error
    /// history survives the rebuild); the rebuild counter increments
    /// once per call.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` is not this store's: a different depth,
    /// or a layer that does not refit the stored codec.
    pub fn rebuild_from_checkpoint(&mut self, checkpoint: &FrozenMlp) {
        assert_eq!(
            checkpoint.depth(),
            self.layers.len(),
            "checkpoint depth differs from the store's"
        );
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let stored = coded(layer);
            // Re-fitting the same checkpoint reproduces the same codec.
            let (refit, codes) =
                fit_and_encode(stored.kind(), stored.width(), &checkpoint.weight_data(l).0)
                    .expect("the geometry the store was built with");
            assert_eq!(
                refit.params(),
                stored.params(),
                "layer {l}: the checkpoint does not refit the stored codec"
            );
            // Carry the history: a rebuilt store has seen every error
            // its predecessor counted.
            let stats = layer.codes.stats();
            layer.codes = ProtectedCodes::protect(codes).with_stats(stats);
        }
        self.rebuilds += 1;
    }

    /// Corrupt layer `l`'s protected storage with a width-1 bit-level
    /// fault map (see [`inject_protected_bits`]); the map must cover
    /// [`storage_bits`](Self::storage_bits)`(l)` elements. Returns bits
    /// struck.
    pub fn inject_bits(&mut self, l: usize, map: &FaultMap) -> usize {
        inject_protected_bits(&mut self.layers[l].codes, map)
    }

    /// Flip one raw storage bit of layer `l` (`bit` addresses the
    /// word's 72-bit codeword: 0–63 data, 64–71 parity) — the surgical
    /// fault the e2e tests use.
    pub fn flip_bit(&mut self, l: usize, word: usize, bit: u32) {
        self.layers[l].codes.flip_raw_bit(word, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_models::ModelFamily;

    fn model() -> FrozenMlp {
        FrozenMlp::synthesize(ModelFamily::ResNet, 11, &[10, 16, 4])
    }

    fn store() -> ProtectedWeights {
        ProtectedWeights::build(&model(), FormatKind::AdaptivFloat, 8)
            .unwrap()
            .0
    }

    #[test]
    fn build_decodes_cleanly_and_deterministically() {
        let (a, ra) = store().decoded_weights();
        let (b, rb) = store().decoded_weights();
        assert_eq!((ra.corrected, ra.uncorrectable), (0, 0));
        assert_eq!(ra, rb);
        let bits =
            |w: &Vec<Vec<f32>>| -> Vec<u32> { w.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(store().format_label(), "AdaptivFloat<8,3>+secded");
    }

    #[test]
    fn stored_codes_equal_the_scalar_encoding_of_the_checkpoint() {
        // One codebook lookup per weight must store exactly the codes
        // per-element `encode_one` would, for every format the registry
        // can protect — and a rebuild must store them again. The values
        // the build hands back are what the storage decodes to.
        let m = FrozenMlp::synthesize(ModelFamily::Transformer, 3, &[16, 24, 8]);
        let bits =
            |w: &Vec<Vec<f32>>| -> Vec<u32> { w.iter().flatten().map(|v| v.to_bits()).collect() };
        for kind in FormatKind::ALL {
            for n in [4u32, 8] {
                let (mut store, values) = ProtectedWeights::build(&m, kind, n).unwrap();
                assert_eq!(
                    bits(&values),
                    bits(&store.decoded_weights().0),
                    "{kind} n={n}"
                );
                let built = store.layers().to_vec();
                store.rebuild_from_checkpoint(&m);
                for (l, (layer, rebuilt)) in built.iter().zip(store.layers()).enumerate() {
                    let mut want = PackedCodes::new(n);
                    for &v in m.weight_data(l).0.iter() {
                        want.push(u64::from(coded(layer).encode_one(v)));
                    }
                    assert_eq!(layer.codes.codes(), &want, "{kind} n={n} layer {l}");
                    let rebuilt = rebuilt.codes.codes();
                    assert_eq!(rebuilt, &want, "{kind} n={n} layer {l} rebuilt");
                }
            }
        }
    }

    #[test]
    fn single_bit_fault_decodes_identically_and_scrubs_away() {
        let clean = store();
        let (want, _) = clean.decoded_weights();
        let mut hit = clean.clone();
        hit.flip_bit(0, 1, 9);
        // The corrected read already matches the clean weights…
        let (got, report) = hit.decoded_weights();
        assert_eq!(report.corrected, 1);
        assert_eq!(report.uncorrectable, 0);
        let bits =
            |w: &Vec<Vec<f32>>| -> Vec<u32> { w.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&got), bits(&want));
        // …and after a scrub the storage itself is clean again.
        assert_eq!(hit.scrub().corrected, 1);
        let (after, post) = hit.decoded_weights();
        assert_eq!((post.corrected, post.uncorrectable), (0, 0));
        assert_eq!(bits(&after), bits(&want));
        assert_eq!(hit.ecc_stats().corrected, 1);
    }

    #[test]
    fn double_bit_fault_forces_rebuild() {
        let mut hit = store();
        let (want, _) = hit.decoded_weights();
        let codes = |s: &ProtectedWeights| -> Vec<PackedCodes> {
            s.layers().iter().map(|l| l.codes.codes().clone()).collect()
        };
        let clean = codes(&hit);
        hit.flip_bit(1, 0, 3);
        hit.flip_bit(1, 0, 40);
        let report = hit.scrub();
        assert_eq!(report.uncorrectable, 1);
        assert_eq!(hit.rebuilds(), 0);
        hit.rebuild_from_checkpoint(&model());
        assert_eq!(hit.rebuilds(), 1);
        let (after, post) = hit.decoded_weights();
        assert_eq!((post.corrected, post.uncorrectable), (0, 0));
        let bits =
            |w: &Vec<Vec<f32>>| -> Vec<u32> { w.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&after), bits(&want));
        // The checkpoint re-encodes to the original codes bit for bit.
        assert_eq!(codes(&hit), clean);
        // Error history survives the rebuild.
        assert_eq!(hit.ecc_stats().detected_uncorrectable, 1);
    }

    #[test]
    #[should_panic(expected = "does not refit the stored codec")]
    fn rebuild_refuses_another_checkpoint() {
        let other = FrozenMlp::synthesize(ModelFamily::Transformer, 11, &[10, 16, 4]);
        store().rebuild_from_checkpoint(&other);
    }
}
