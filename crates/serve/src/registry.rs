//! The model registry: where model variants are built **once** — weight
//! quantization, activation calibration, LUT prewarm — and then served
//! as immutable `Arc`-shared snapshots.
//!
//! Registration is two steps. [`ModelRegistry::build`] is the expensive,
//! pure one: it synthesizes the weights, quantizes them (protected
//! storage and the fused GEMM's packed codes are encoded by code-index
//! lookup over the already-rounded weights), runs a calibration forward
//! pass and builds the codebooks, touching no registry. A
//! [`BuiltVariant`] is then [`publish`](ModelRegistry::publish)ed: the
//! registry assigns its generation, swaps it in and journals it.
//! [`register`](ModelRegistry::register) is the two in a row, except
//! that it starts from the checkpoint's *twin* when one is live: the
//! pristine FP32 variant of the same `(family, seed, dims)`, whose
//! model is exactly what synthesis would redraw, so its weights are
//! copied rather than synthesized again. A fleet builds once and
//! publishes a clone on every replica: the replicas share the one
//! immutable snapshot, and each owns its protected storage, WAL record
//! and generation.
//!
//! Every snapshot — a first build, a refresh from scrubbed storage, a
//! restore from disk — is assembled by one builder from the FP32 base,
//! a weight source and the activation ranges, and ends with the spec's
//! fused GEMM; only a first build calibrates.
//!
//! The serve path is a read-locked map lookup returning an
//! [`Arc<ModelVariant>`]. Re-registering an id is a **hot swap**: the
//! map entry is replaced under a brief write lock, while in-flight
//! batches keep evaluating against the `Arc` they already cloned.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use adaptivfloat::{FormatError, FormatKind, StorageCodec};
use af_models::{FrozenMlp, ModelFamily};
use af_store::ContainerBody;

use crate::protect::ProtectedWeights;

/// Everything needed to build one servable model variant.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Registry key, e.g. `"transformer/adaptivfloat8"`.
    pub id: String,
    /// Which weight-distribution family to synthesize.
    pub family: ModelFamily,
    /// Layer widths, input first (`dims[0]` = request feature width).
    pub dims: Vec<usize>,
    /// Synthesis seed (deterministic snapshots under equal specs).
    pub seed: u64,
    /// Weight PTQ format, or `None` to serve FP32 weights.
    pub weight_format: Option<(FormatKind, u32)>,
    /// Calibrated activation-quantization format, or `None`.
    pub act_format: Option<(FormatKind, u32)>,
    /// Whether the variant's weight codes live behind SEC-DED protected
    /// storage (requires `weight_format`). The served snapshot is then
    /// built from what the storage decodes to, under the storage's
    /// encoding recipe; a scrubber can repair single-bit upsets in
    /// place, and uncorrectable errors trigger a re-encode from the
    /// FP32 checkpoint plus a hot swap.
    pub protected: bool,
    /// Whether the variant serves batches through the fused
    /// quantized-domain GEMM (packed weight codes decoded inside the
    /// matmul kernel — bit-identical answers, `n/8` of the weight
    /// traffic). Requires an AdaptivFloat or Uniform `weight_format` at
    /// `n ∈ {4, 8}`; combines with `protected`, whose snapshots keep
    /// the storage's recipe.
    pub fused: bool,
}

impl VariantSpec {
    /// An FP32 reference variant.
    pub fn fp32(id: &str, family: ModelFamily, seed: u64, dims: &[usize]) -> VariantSpec {
        VariantSpec {
            id: id.to_string(),
            family,
            dims: dims.to_vec(),
            seed,
            weight_format: None,
            act_format: None,
            protected: false,
            fused: false,
        }
    }

    /// A fully quantized variant: weights *and* activations through
    /// `kind` at word size `n` (the paper's Table 3 configuration).
    pub fn quantized(
        id: &str,
        family: ModelFamily,
        kind: FormatKind,
        n: u32,
        seed: u64,
        dims: &[usize],
    ) -> VariantSpec {
        VariantSpec {
            id: id.to_string(),
            family,
            dims: dims.to_vec(),
            seed,
            weight_format: Some((kind, n)),
            act_format: Some((kind, n)),
            protected: false,
            fused: false,
        }
    }

    /// Put this variant's weight codes behind SEC-DED protected storage.
    ///
    /// # Panics
    ///
    /// [`ModelRegistry::register`] panics if the spec has no weight
    /// format — there are no stored codes to protect under FP32.
    pub fn protected(mut self) -> VariantSpec {
        self.protected = true;
        self
    }

    /// Serve this variant's batches through the fused quantized-domain
    /// GEMM (packed weight codes, decoded inside the matmul kernel).
    ///
    /// # Panics
    ///
    /// [`ModelRegistry::register`] panics if the spec has no weight
    /// format, or its format/word size is one [`FrozenMlp::fuses`]
    /// refuses (it accepts AdaptivFloat or Uniform at `n ∈ {4, 8}`). The
    /// packed kernel decodes any 4- or 8-bit codebook through a table;
    /// the kind restriction is policy.
    pub fn fused(mut self) -> VariantSpec {
        self.fused = true;
        self
    }
}

/// One registered, immutable, servable snapshot.
#[derive(Debug)]
pub struct ModelVariant {
    /// Registry key.
    pub id: String,
    /// The frozen inference network — shared, never mutated: a scrub
    /// repairs the storage, and a rebuild publishes a new snapshot.
    pub model: Arc<FrozenMlp>,
    /// Bumped on every hot swap of this id (0 for the first build).
    pub generation: u64,
    /// SEC-DED protected weight storage, when the spec asked for it.
    /// Shared across hot swaps of the same id: the scrubber repairs
    /// this store while served snapshots come and go around it.
    pub protected: Option<Arc<Mutex<ProtectedWeights>>>,
    /// The spec this variant was built from — retained so storage
    /// refreshes and rebuilds can reconstruct the snapshot (biases,
    /// activation ranges) without the original caller.
    pub spec: VariantSpec,
}

/// A variant built by [`ModelRegistry::build`] (or restored from disk)
/// and not yet published: the snapshot and, for protected specs, the
/// storage it was decoded from. Cloning shares the immutable snapshot
/// (one resident copy of the weights however many replicas publish it)
/// but deep-copies the protected storage, so each registry a clone is
/// [`publish`](ModelRegistry::publish)ed on owns an independent store,
/// ECC history and generation.
#[derive(Debug, Clone)]
pub struct BuiltVariant {
    /// The frozen inference network, shared by every clone.
    pub model: Arc<FrozenMlp>,
    /// SEC-DED protected weight storage, when the spec asked for it.
    pub protected: Option<ProtectedWeights>,
    /// The spec the variant was built from.
    pub spec: VariantSpec,
}

/// What one scrub of a protected variant found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Single-bit errors repaired in place.
    pub corrected: usize,
    /// Detected-uncorrectable words (each forces the rebuild below).
    pub uncorrectable: usize,
    /// Whether storage was re-encoded from the FP32 checkpoint and the
    /// served snapshot hot-swapped.
    pub rebuilt: bool,
    /// The variant's generation after the scrub (bumped iff `rebuilt`).
    pub generation: u64,
}

/// Rows of calibration inputs used when a variant quantizes activations.
const CALIB_ROWS: usize = 64;

/// The FP32 checkpoint `spec` is built from: `master` when the caller
/// has it (a resident twin's copy), else a fresh synthesis under
/// `(family, seed, dims)`. The one place a spec becomes its checkpoint.
fn checkpoint(spec: &VariantSpec, master: Option<FrozenMlp>) -> FrozenMlp {
    master.unwrap_or_else(|| FrozenMlp::synthesize(spec.family, spec.seed, &spec.dims))
}

/// Already-decoded weights, ready to serve.
#[derive(Debug)]
pub(crate) struct Decoded {
    /// One value vector per layer, in the base's shapes.
    pub values: Vec<Vec<f32>>,
    /// The codec each layer's values were encoded under; `None` for
    /// lossless f32.
    pub codecs: Option<Vec<StorageCodec>>,
    /// The weight-format label the snapshot serves under.
    pub label: String,
}

impl Decoded {
    /// `values`, what `store` decodes to, under the codecs it was
    /// encoded with.
    fn stored(store: &ProtectedWeights, values: Vec<Vec<f32>>) -> Decoded {
        Decoded {
            values,
            codecs: Some(store.codecs()),
            label: store.format_label().to_string(),
        }
    }

    /// What `store` decodes to, under the codecs it was encoded with.
    fn of(store: &ProtectedWeights) -> Decoded {
        Decoded::stored(store, store.decoded_weights().0)
    }

    /// `base` serving these weights (biases stay the base's).
    fn onto(self, base: FrozenMlp) -> FrozenMlp {
        match self.codecs {
            Some(codecs) => base.with_quantized_weights(codecs, self.values, &self.label),
            None => base.with_weight_data(self.values, &self.label),
        }
    }
}

/// Where an assembled snapshot's served weights come from.
#[derive(Debug)]
pub(crate) enum Weights {
    /// Quantize the base through the spec's weight format — into fresh
    /// protected storage when the spec asks for it. An FP32 spec
    /// serves the base as it is.
    Quantize,
    /// Serve what this protected store decodes to; the store becomes
    /// the built variant's.
    Protected(ProtectedWeights),
    /// Serve weights decoded elsewhere (live storage, a container).
    Decoded(Decoded),
}

/// Where an assembled snapshot's activation ranges come from.
#[derive(Debug)]
pub(crate) enum Ranges<'a> {
    /// Calibrate the spec's activation format on a deterministic batch:
    /// a snapshot's first build only.
    Calibrate,
    /// Re-plan from ranges an earlier build froze, in the shape of
    /// [`FrozenMlp::act_recipe`] (`None`: no activation quantization).
    Frozen(Option<(FormatKind, u32, &'a [f32])>),
}

/// The one way a served snapshot is assembled: `base` (the spec's FP32
/// checkpoint) takes its weights from `weights` and its activation
/// plans from `ranges`, then switches to the fused GEMM if the spec
/// asks for it. Returns the snapshot with any protected storage this
/// call built or was handed.
///
/// # Errors
///
/// Returns [`FormatError::InvalidBits`] if a format cannot be built at
/// its word size.
///
/// # Panics
///
/// Panics if the spec asks for protected storage without a weight
/// format (FP32 variants have no stored codes to protect), or for a
/// fused GEMM the weights cannot take (see [`VariantSpec::fused`]) —
/// at build time, so a bad spec fails loudly here, not at serve time.
pub(crate) fn assemble(
    spec: &VariantSpec,
    base: FrozenMlp,
    weights: Weights,
    ranges: Ranges<'_>,
) -> Result<BuiltVariant, FormatError> {
    let (model, protected) = match weights {
        // Encode into protected storage first, then serve what the
        // storage decodes to — the storage is authoritative, so a
        // scrub-repaired store decodes to exactly the weights already
        // being served.
        Weights::Quantize if spec.protected => {
            let (kind, n) = spec
                .weight_format
                .expect("protected storage requires a weight format");
            let (store, values) = ProtectedWeights::build(&base, kind, n)?;
            (Decoded::stored(&store, values).onto(base), Some(store))
        }
        Weights::Quantize => match spec.weight_format {
            Some((kind, n)) => (base.quantize_weights(kind, n)?, None),
            None => (base, None),
        },
        Weights::Protected(store) => (Decoded::of(&store).onto(base), Some(store)),
        Weights::Decoded(decoded) => (decoded.onto(base), None),
    };
    let model = match ranges {
        Ranges::Calibrate => match spec.act_format {
            Some((kind, n)) => {
                let calib =
                    FrozenMlp::synth_inputs(spec.seed ^ 0xCA11_B8A7, CALIB_ROWS, spec.dims[0]);
                model.with_act_quant(kind, n, &calib)?
            }
            None => model,
        },
        Ranges::Frozen(Some((kind, n, maxes))) => model.with_act_quant_frozen(kind, n, maxes)?,
        Ranges::Frozen(None) => model,
    };
    let model = if spec.fused {
        model.with_fused_gemm()
    } else {
        model
    };
    Ok(BuiltVariant {
        model: Arc::new(model),
        protected,
        spec: spec.clone(),
    })
}

/// Observer for registry mutations — the seam a durable store plugs
/// into so every register, scrub, hot swap, and unregister is journaled
/// before the next one can happen. Hooks are invoked *after* the
/// registry releases its write lock (an implementation may call back
/// into read-side registry methods), and must not panic: persistence
/// failures are the implementor's to count and report.
pub trait RegistryJournal: Send + Sync + std::fmt::Debug {
    /// A variant was built and published (first build or re-register).
    /// `body`, when given, is the container body of the variant's
    /// snapshot ([`BuiltVariant::container_body`]), encoded once for
    /// every registry the build is published on; without it the
    /// journal exports the variant itself.
    fn on_register(&self, variant: &ModelVariant, body: Option<&ContainerBody>);
    /// A scrub pass finished over a protected variant.
    fn on_scrub(&self, id: &str, outcome: &ScrubOutcome);
    /// A hot swap republished `id`'s snapshot at `generation`.
    fn on_swap(&self, id: &str, generation: u64);
    /// `id` was removed from the registry.
    fn on_unregister(&self, id: &str);
}

/// The id → snapshot map. Cheap to share (`Arc<ModelRegistry>`); the
/// serve path takes only the read lock.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    inner: RwLock<HashMap<String, Arc<ModelVariant>>>,
    journal: RwLock<Option<Arc<dyn RegistryJournal>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Attach a journal. Mutations from this point on flow through it;
    /// anything already registered (e.g. variants installed during
    /// recovery, which the journal's own log produced) is not replayed.
    pub fn set_journal(&self, journal: Arc<dyn RegistryJournal>) {
        *self.journal.write().expect("journal lock poisoned") = Some(journal);
    }

    fn journal(&self) -> Option<Arc<dyn RegistryJournal>> {
        self.journal
            .read()
            .expect("journal lock poisoned")
            .as_ref()
            .map(Arc::clone)
    }

    /// Build and publish a variant: [`build`](Self::build) followed by
    /// [`publish`](Self::publish), except that the build starts from a
    /// copy of the checkpoint's live FP32 twin (a variant with neither
    /// a weight nor an activation format and the same family, seed and
    /// dims) instead of synthesizing the weights again. The result is
    /// bit-identical either way. Order matters for the saving only:
    /// quantized variants registered before their FP32 twin each
    /// synthesize, so register the FP32 baseline first. Returns the
    /// published snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if a requested format
    /// cannot be built at its word size.
    ///
    /// # Panics
    ///
    /// Panics where [`build`](Self::build) does.
    pub fn register(&self, spec: &VariantSpec) -> Result<Arc<ModelVariant>, FormatError> {
        let built = ModelRegistry::build_from(spec, self.twin_model(spec))?;
        Ok(self.publish(built, None))
    }

    /// Build a variant without publishing it anywhere: synthesize the
    /// weights, quantize them once (into protected storage when the
    /// spec asks for it), calibrate activation ranges on a
    /// deterministic batch, pre-warm LUT codebooks and switch to the
    /// fused GEMM. Pure in the spec — no registry, journal or
    /// generation is involved — so one build can be
    /// [`publish`](Self::publish)ed (as clones) on several registries.
    /// Always synthesizes; [`register`](Self::register) is the path that
    /// reuses a resident FP32 twin.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] if a requested format
    /// cannot be built at its word size.
    ///
    /// # Panics
    ///
    /// Panics if the spec asks for protected storage without a weight
    /// format (FP32 variants have no stored codes to protect), or for a
    /// fused GEMM the weights cannot take (see [`VariantSpec::fused`]).
    pub fn build(spec: &VariantSpec) -> Result<BuiltVariant, FormatError> {
        ModelRegistry::build_from(spec, None)
    }

    /// [`build`](Self::build) starting from `master`, the FP32
    /// checkpoint of `spec` (synthesized when `None`).
    fn build_from(
        spec: &VariantSpec,
        master: Option<FrozenMlp>,
    ) -> Result<BuiltVariant, FormatError> {
        assemble(
            spec,
            checkpoint(spec, master),
            Weights::Quantize,
            Ranges::Calibrate,
        )
    }

    /// The one place a [`ModelVariant`] is made: swap `model` in under
    /// `spec.id` at `generation`, or at the id's next generation (0 for
    /// a new id) when `None`. Journals nothing.
    fn swap_in(
        &self,
        model: Arc<FrozenMlp>,
        spec: VariantSpec,
        protected: Option<Arc<Mutex<ProtectedWeights>>>,
        generation: Option<u64>,
    ) -> Arc<ModelVariant> {
        let mut map = self.inner.write().expect("registry poisoned");
        let generation =
            generation.unwrap_or_else(|| map.get(&spec.id).map_or(0, |v| v.generation + 1));
        let variant = Arc::new(ModelVariant {
            id: spec.id.clone(),
            model,
            generation,
            protected,
            spec,
        });
        map.insert(variant.id.clone(), Arc::clone(&variant));
        variant
    }

    /// Publish a built variant: swap it in atomically under its id
    /// (the generation is this registry's previous one plus one, or 0)
    /// and journal it. A protected variant's storage becomes this
    /// registry's own. `body` is the build's
    /// [`container_body`](BuiltVariant::container_body), when the
    /// caller publishes one build on several registries and encoded it
    /// once for all of them; the journal then writes it instead of
    /// exporting the snapshot again. Returns the published snapshot.
    pub fn publish(&self, built: BuiltVariant, body: Option<&ContainerBody>) -> Arc<ModelVariant> {
        let protected = built.protected.map(|p| Arc::new(Mutex::new(p)));
        let variant = self.swap_in(built.model, built.spec, protected, None);
        if let Some(journal) = self.journal() {
            journal.on_register(&variant, body);
        }
        variant
    }

    /// Publish a variant restored from durable storage at its recovered
    /// `generation`. Recovery-only: nothing is journaled (the journal's
    /// own records produced this state), and any existing entry under
    /// the id is replaced.
    pub fn install(&self, built: BuiltVariant, generation: u64) -> Arc<ModelVariant> {
        let protected = built.protected.map(|p| Arc::new(Mutex::new(p)));
        self.swap_in(built.model, built.spec, protected, Some(generation))
    }

    /// Remove `id` from the registry (journaled). In-flight batches
    /// keep the `Arc` they hold. Returns whether anything was removed.
    pub fn unregister(&self, id: &str) -> bool {
        let removed = self
            .inner
            .write()
            .expect("registry poisoned")
            .remove(id)
            .is_some();
        if removed {
            if let Some(journal) = self.journal() {
                journal.on_unregister(id);
            }
        }
        removed
    }

    /// Rebuild `id`'s served snapshot from its (possibly scrubbed)
    /// protected storage and hot-swap it in, bumping the generation.
    /// The biases come from the checkpoint, copied from its live FP32
    /// twin when one is registered; the activation plans re-plan from
    /// the current snapshot's frozen ranges.
    /// Returns the new snapshot, or `None` if `id` is unknown or
    /// unprotected. In-flight batches keep the `Arc` they hold.
    pub fn refresh_from_storage(&self, id: &str) -> Option<Arc<ModelVariant>> {
        let current = self.get(id)?;
        current.protected.as_ref()?;
        let base = checkpoint(&current.spec, self.twin_model(&current.spec));
        self.refresh(&current, base)
    }

    /// [`refresh_from_storage`](Self::refresh_from_storage) of the
    /// protected variant `current`, with `base` its FP32 checkpoint.
    fn refresh(&self, current: &ModelVariant, base: FrozenMlp) -> Option<Arc<ModelVariant>> {
        let id = &current.id;
        let store = Arc::clone(current.protected.as_ref()?);
        // Decode under the store lock, build the snapshot outside it.
        let decoded = Decoded::of(&store.lock().expect("protected store poisoned"));
        let built = assemble(
            &current.spec,
            base,
            Weights::Decoded(decoded),
            Ranges::Frozen(current.model.act_recipe()),
        )
        // The same geometry built at registration time; it cannot
        // start failing now.
        .ok()?;
        let variant = self.swap_in(built.model, built.spec, Some(store), None);
        if let Some(journal) = self.journal() {
            journal.on_swap(id, variant.generation);
        }
        Some(variant)
    }

    /// Scrub `id`'s protected storage once: repair every correctable
    /// word in place; on any uncorrectable word, re-encode the storage
    /// from the FP32 checkpoint (copied from a resident twin, else
    /// synthesized again) and hot-swap a fresh snapshot (generation
    /// bump). Returns `None` for unknown or unprotected ids.
    pub fn scrub_variant(&self, id: &str) -> Option<ScrubOutcome> {
        let current = self.get(id)?;
        let store = Arc::clone(current.protected.as_ref()?);
        let (report, base) = {
            let mut guard = store.lock().expect("protected store poisoned");
            let report = guard.scrub();
            // Rebuild under the same lock, so a concurrent scrub never
            // detects (and counts) the same uncorrectable word again.
            // The twin lookup takes the registry's read lock inside the
            // store lock; no path takes them in the other order.
            let base = (report.uncorrectable > 0).then(|| {
                let base = checkpoint(&current.spec, self.twin_model(&current.spec));
                guard.rebuild_from_checkpoint(&base);
                base
            });
            (report, base)
        };
        let rebuilt = base.is_some();
        let generation = match base {
            // Correctable errors were repaired to bit-identical storage,
            // so the served snapshot is already right; only a rebuild
            // publishes a new one.
            Some(base) => self
                .refresh(&current, base)
                .map_or(current.generation, |v| v.generation),
            None => current.generation,
        };
        let outcome = ScrubOutcome {
            corrected: report.corrected,
            uncorrectable: report.uncorrectable,
            rebuilt,
            generation,
        };
        if let Some(journal) = self.journal() {
            journal.on_scrub(id, &outcome);
        }
        Some(outcome)
    }

    /// A deep copy of the model of `spec`'s live twin: a variant with
    /// neither a weight nor an activation format whose family, seed and
    /// dims equal `spec`'s. Its model is the synthesized FP32
    /// checkpoint itself. The copy is taken after the read lock is
    /// released, so a waiting [`publish`](Self::publish) never waits
    /// for it; it is a copy because assembling a snapshot consumes its
    /// base.
    fn twin_model(&self, spec: &VariantSpec) -> Option<FrozenMlp> {
        let twin = self
            .inner
            .read()
            .expect("registry poisoned")
            .values()
            .find(|v| {
                let t = &v.spec;
                t.weight_format.is_none()
                    && t.act_format.is_none()
                    && t.family == spec.family
                    && t.seed == spec.seed
                    && t.dims == spec.dims
            })
            .map(Arc::clone)?;
        Some((*twin.model).clone())
    }

    /// Fetch the current snapshot for `id` (read lock + `Arc` clone).
    pub fn get(&self, id: &str) -> Option<Arc<ModelVariant>> {
        self.inner
            .read()
            .expect("registry poisoned")
            .get(id)
            .map(Arc::clone)
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .inner
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// Number of registered variants.
    pub fn len(&self) -> usize {
        self.inner.read().expect("registry poisoned").len()
    }

    /// Whether no variants are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str) -> VariantSpec {
        VariantSpec::quantized(
            id,
            ModelFamily::ResNet,
            FormatKind::Uniform,
            8,
            5,
            &[16, 32, 8],
        )
    }

    #[test]
    fn register_builds_quantized_warm_snapshot() {
        let reg = ModelRegistry::new();
        let v = reg.register(&spec("resnet/uniform8")).unwrap();
        assert_eq!(v.model.format_name(), "Uniform<8>");
        assert_eq!(v.model.act_format_name().as_deref(), Some("Uniform<8>"));
        assert!(
            v.model.prewarm_codebooks() > 0,
            "LUT formats must warm codebooks"
        );
        assert_eq!(v.generation, 0);
        assert_eq!(reg.ids(), vec!["resnet/uniform8".to_string()]);
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn hot_swap_replaces_snapshot_without_touching_old_arc() {
        let reg = ModelRegistry::new();
        let old = reg.register(&spec("m")).unwrap();
        let x = FrozenMlp::synth_inputs(1, 1, 16);
        let before = old.model.evaluate(x.row(0));
        // Swap in a different seed — a new snapshot under the same id.
        let mut s2 = spec("m");
        s2.seed = 6;
        let new = reg.register(&s2).unwrap();
        assert_eq!(new.generation, 1);
        assert!(!Arc::ptr_eq(&old, &new));
        // The old Arc (an in-flight batch) still evaluates identically.
        let after: Vec<u32> = old
            .model
            .evaluate(x.row(0))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let before: Vec<u32> = before.iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
        // New lookups see the swapped snapshot.
        let current = reg.get("m").unwrap();
        assert!(Arc::ptr_eq(&current, &new));
    }

    /// Output bits at b=1 (`evaluate`, the naive reference) and at b=16
    /// (`evaluate_batch`, through the fused GEMM when the model has it).
    fn served_bits(model: &FrozenMlp) -> [Vec<u32>; 2] {
        let x = FrozenMlp::synth_inputs(4, 16, 16);
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect();
        [
            bits(&model.evaluate(x.row(0))),
            bits(model.evaluate_batch(&x).data()),
        ]
    }

    /// The protected spec `"p"`, dense and fused, each with the bits its
    /// unprotected twin serves.
    fn protected_with_twin_bits() -> Vec<(VariantSpec, [Vec<u32>; 2])> {
        [spec("p"), spec("p").fused()]
            .into_iter()
            .map(|twin| {
                let want = served_bits(&ModelRegistry::build(&twin).unwrap().model);
                (twin.protected(), want)
            })
            .collect()
    }

    #[test]
    fn protected_registration_serves_what_the_storage_decodes_to() {
        let reg = ModelRegistry::new();
        let v = reg.register(&spec("p").protected()).unwrap();
        assert_eq!(v.model.format_name(), "Uniform<8>+secded");
        assert!(v.protected.is_some());
        // A clean store scrubs clean and publishes nothing new.
        let outcome = reg.scrub_variant("p").unwrap();
        assert_eq!(outcome.corrected, 0);
        assert!(!outcome.rebuilt);
        assert_eq!(outcome.generation, 0);
        // Unprotected and unknown ids answer None.
        reg.register(&spec("u")).unwrap();
        assert!(reg.scrub_variant("u").is_none());
        assert!(reg.scrub_variant("ghost").is_none());
        assert!(reg.refresh_from_storage("u").is_none());
    }

    #[test]
    fn scrub_repairs_single_bit_upset_with_bit_identical_serving() {
        for (spec, want) in protected_with_twin_bits() {
            let fused = spec.fused;
            let reg = ModelRegistry::new();
            let v = reg.register(&spec).unwrap();
            assert_eq!(served_bits(&v.model), want, "fused={fused}");
            v.protected
                .as_ref()
                .unwrap()
                .lock()
                .unwrap()
                .flip_bit(0, 1, 17);
            let outcome = reg.scrub_variant("p").unwrap();
            assert_eq!(outcome.corrected, 1);
            assert_eq!(outcome.uncorrectable, 0);
            assert!(!outcome.rebuilt, "single-bit upsets repair in place");
            assert_eq!(outcome.generation, 0, "no republish needed");
            // Storage is bit-identical again: a snapshot rebuilt from it
            // answers exactly what the unprotected twin serves.
            let refreshed = reg.refresh_from_storage("p").unwrap();
            assert_eq!(served_bits(&refreshed.model), want, "fused={fused}");
            let fused_layers = if fused { refreshed.model.depth() } else { 0 };
            assert_eq!(refreshed.model.fused_layers(), fused_layers);
        }
    }

    #[test]
    fn uncorrectable_upset_rebuilds_from_the_checkpoint_and_bumps_generation() {
        // The checkpoint comes from a resident FP32 twin when one is
        // registered and from a fresh synthesis when not; either way the
        // rebuilt storage holds the original codes bit for bit.
        for with_twin in [false, true] {
            for (spec, want) in protected_with_twin_bits() {
                let fused = spec.fused;
                let reg = ModelRegistry::new();
                if with_twin {
                    reg.register(&VariantSpec::fp32("f", spec.family, spec.seed, &spec.dims))
                        .unwrap();
                }
                let v = reg.register(&spec).unwrap();
                let codes = |v: &ModelVariant| -> Vec<_> {
                    let store = v.protected.as_ref().unwrap().lock().unwrap();
                    store
                        .layers()
                        .iter()
                        .map(|l| l.codes.codes().clone())
                        .collect()
                };
                let clean = codes(&v);
                {
                    let mut store = v.protected.as_ref().unwrap().lock().unwrap();
                    store.flip_bit(0, 2, 6);
                    store.flip_bit(0, 2, 51);
                }
                let outcome = reg.scrub_variant("p").unwrap();
                assert_eq!(outcome.uncorrectable, 1);
                assert!(outcome.rebuilt);
                assert_eq!(outcome.generation, 1, "rebuild hot-swaps a new snapshot");
                let current = reg.get("p").unwrap();
                assert_eq!(current.generation, 1);
                assert!(!Arc::ptr_eq(&current, &v));
                assert_eq!(codes(&current), clean, "fused={fused} twin={with_twin}");
                assert_eq!(served_bits(&current.model), want, "fused={fused}");
                let fused_layers = if fused { current.model.depth() } else { 0 };
                assert_eq!(current.model.fused_layers(), fused_layers);
                // The store Arc is shared across the swap; history survived,
                // and the one detection counted one rebuild.
                let store = current.protected.as_ref().unwrap().lock().unwrap();
                assert_eq!(store.ecc_stats().detected_uncorrectable, 1);
                assert_eq!(store.rebuilds(), 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "protected storage requires a weight format")]
    fn protected_fp32_spec_is_rejected() {
        let reg = ModelRegistry::new();
        let _ = reg.register(&VariantSpec::fp32("f", ModelFamily::ResNet, 1, &[8, 4]).protected());
    }

    fn weight_bits(model: &FrozenMlp) -> Vec<Vec<u32>> {
        (0..model.depth())
            .map(|l| model.weight_data(l).0.iter().map(|w| w.to_bits()).collect())
            .collect()
    }

    /// An AdaptivFloat8 variant of `spec`'s checkpoint.
    fn af8(id: &str) -> VariantSpec {
        VariantSpec::quantized(
            id,
            ModelFamily::ResNet,
            FormatKind::AdaptivFloat,
            8,
            5,
            &[16, 32, 8],
        )
    }

    #[test]
    fn twin_is_the_pristine_fp32_of_the_same_checkpoint() {
        let reg = ModelRegistry::new();
        let want = af8("q");
        assert!(reg.twin_model(&want).is_none(), "empty registry");
        reg.register(&VariantSpec::fp32("f", want.family, want.seed, &want.dims))
            .unwrap();
        let twin = reg.twin_model(&want).expect("resident fp32 twin");
        let synthesized = FrozenMlp::synthesize(want.family, want.seed, &want.dims);
        assert_eq!(weight_bits(&twin), weight_bits(&synthesized));
        assert_eq!(twin.format_name(), "fp32");
        // Any other checkpoint has no twin here.
        let mut other = want.clone();
        other.seed += 1;
        assert!(reg.twin_model(&other).is_none(), "seed differs");
        let mut other = want.clone();
        other.dims = vec![16, 24, 8];
        assert!(reg.twin_model(&other).is_none(), "dims differ");
        let mut other = want.clone();
        other.family = ModelFamily::Transformer;
        assert!(reg.twin_model(&other).is_none(), "family differs");
    }

    #[test]
    fn formatted_variants_are_never_twins() {
        let want = af8("q");
        let fp32 = VariantSpec::fp32("f", want.family, want.seed, &want.dims);
        // Weight format only, both formats, and activation format only:
        // none of them holds the FP32 checkpoint's weights as served.
        let weights_only = VariantSpec {
            act_format: None,
            ..want.clone()
        };
        let acts_only = VariantSpec {
            act_format: want.act_format,
            ..fp32
        };
        for resident in [weights_only, want.clone(), acts_only] {
            let reg = ModelRegistry::new();
            reg.register(&resident).unwrap();
            assert!(
                reg.twin_model(&want).is_none(),
                "{:?}/{:?} is not a twin",
                resident.weight_format,
                resident.act_format
            );
        }
    }

    #[test]
    fn deterministic_under_equal_spec() {
        let (ra, rb) = (ModelRegistry::new(), ModelRegistry::new());
        let (a, b) = (
            ra.register(&spec("m")).unwrap(),
            rb.register(&spec("m")).unwrap(),
        );
        let x = FrozenMlp::synth_inputs(2, 1, 16);
        let ya: Vec<u32> = a
            .model
            .evaluate(x.row(0))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let yb: Vec<u32> = b
            .model
            .evaluate(x.row(0))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(ya, yb);
    }
}
