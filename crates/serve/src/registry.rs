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
//! publishes a clone on every replica, each with its own protected
//! storage, WAL record and generation.
//!
//! The serve path is a read-locked map lookup returning an
//! [`Arc<ModelVariant>`]. Re-registering an id is a **hot swap**: the
//! map entry is replaced under a brief write lock, while in-flight
//! batches keep evaluating against the `Arc` they already cloned.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use adaptivfloat::{FormatError, FormatKind};
use af_models::{FrozenMlp, ModelFamily};

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
    /// built from what the storage decodes to, a scrubber can repair
    /// single-bit upsets in place, and uncorrectable errors trigger a
    /// rebuild from the retained f32 master plus a hot swap.
    pub protected: bool,
    /// Whether the variant serves batches through the fused
    /// quantized-domain GEMM (packed weight codes decoded inside the
    /// matmul kernel — bit-identical answers, `n/8` of the weight
    /// traffic). Requires an AdaptivFloat or Uniform `weight_format` at
    /// `n ∈ {4, 8}`, and is mutually exclusive with `protected` (whose
    /// snapshots are rebuilt from decoded storage and so carry no
    /// encoding recipe).
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
    /// [`ModelRegistry::register`] panics if the spec is also
    /// `protected`, has no weight format, or its format/word size is
    /// outside what the packed kernel supports (AdaptivFloat or
    /// Uniform at `n ∈ {4, 8}`).
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
    /// The frozen inference network.
    pub model: FrozenMlp,
    /// Codebook-path layers warmed at registration time.
    pub warmed_codebooks: usize,
    /// Quantization plans frozen while building this snapshot (one per
    /// weight tensor plus one per activation layer).
    pub plans_built: usize,
    /// Of the codebook-backed activation plans, how many found their
    /// codebook already warm in the process-wide cache (shared with an
    /// earlier registration) instead of building it.
    pub plan_cache_hits: usize,
    /// Bumped on every hot swap of this id (0 for the first build).
    pub generation: u64,
    /// SEC-DED protected weight storage, when the spec asked for it.
    /// Shared across hot swaps of the same id: the scrubber repairs
    /// this store while served snapshots come and go around it.
    pub protected: Option<Arc<Mutex<ProtectedWeights>>>,
    /// The spec this variant was built from — retained so storage
    /// refreshes and rebuilds can reconstruct the snapshot (biases,
    /// activation calibration) without the original caller.
    pub spec: VariantSpec,
}

/// A variant built by [`ModelRegistry::build`] and not yet published:
/// the snapshot, its build counters and, for protected specs, the
/// storage it was decoded from. Cloning deep-copies everything,
/// protected storage included, so each registry a clone is
/// [`publish`](ModelRegistry::publish)ed on owns an independent store.
#[derive(Debug, Clone)]
pub struct BuiltVariant {
    /// The frozen inference network.
    pub model: FrozenMlp,
    /// Codebook-path layers warmed by the build.
    pub warmed_codebooks: usize,
    /// Quantization plans frozen by the build.
    pub plans_built: usize,
    /// Codebook-backed activation plans whose codebook was already warm.
    pub plan_cache_hits: usize,
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
    /// Whether storage was re-encoded from the f32 master and the
    /// served snapshot hot-swapped.
    pub rebuilt: bool,
    /// The variant's generation after the scrub (bumped iff `rebuilt`).
    pub generation: u64,
}

/// Rows of calibration inputs used when a variant quantizes activations.
const CALIB_ROWS: usize = 64;

/// The FP32 checkpoint `spec` is built from: `master` when the caller
/// has it, else a fresh synthesis under `(family, seed, dims)`.
fn checkpoint(spec: &VariantSpec, master: Option<FrozenMlp>) -> FrozenMlp {
    master.unwrap_or_else(|| FrozenMlp::synthesize(spec.family, spec.seed, &spec.dims))
}

/// Observer for registry mutations — the seam a durable store plugs
/// into so every register, scrub, hot swap, and unregister is journaled
/// before the next one can happen. Hooks are invoked *after* the
/// registry releases its write lock (an implementation may call back
/// into read-side registry methods), and must not panic: persistence
/// failures are the implementor's to count and report.
pub trait RegistryJournal: Send + Sync + std::fmt::Debug {
    /// A variant was built and published (first build or re-register).
    fn on_register(&self, variant: &ModelVariant);
    /// A scrub pass finished over a protected variant.
    fn on_scrub(&self, id: &str, outcome: &ScrubOutcome);
    /// A hot swap republished `id`'s snapshot at `generation`.
    fn on_swap(&self, id: &str, generation: u64);
    /// `id` was removed from the registry.
    fn on_unregister(&self, id: &str);
}

/// The pieces of a variant reconstructed from durable storage, handed
/// to [`ModelRegistry::install`]. Unlike a fresh
/// [`register`](ModelRegistry::register), every counter is supplied by
/// the caller (recovered from disk) and nothing is journaled.
#[derive(Debug)]
pub struct RestoredParts {
    /// The spec the variant was originally built from.
    pub spec: VariantSpec,
    /// The restored snapshot (weights decoded from stored codes).
    pub model: FrozenMlp,
    /// Recovered counter: codebook-path layers warm at build time.
    pub warmed_codebooks: usize,
    /// Recovered counter: plans frozen building the original snapshot.
    pub plans_built: usize,
    /// Recovered counter: codebook cache hits at original build.
    pub plan_cache_hits: usize,
    /// Recovered hot-swap generation — restart must not reset it.
    pub generation: u64,
    /// Restored protected storage, when the spec used it.
    pub protected: Option<Arc<Mutex<ProtectedWeights>>>,
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
        Ok(self.publish(ModelRegistry::build_from(spec, self.twin_model(spec))?))
    }

    /// Build a variant without publishing it anywhere: synthesize the
    /// weights, quantize them once (into protected storage when the
    /// spec asks for it), switch to the fused GEMM, calibrate
    /// activation ranges on a deterministic batch and pre-warm LUT
    /// codebooks. Pure in the spec — no registry, journal or
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
        let mut model = checkpoint(spec, master);
        let mut plans_built = 0usize;
        let mut plan_cache_hits = 0usize;
        let mut protected = None;
        if spec.protected {
            let (kind, n) = spec
                .weight_format
                .expect("protected storage requires a weight format");
            // Encode into protected storage first, then build the served
            // weights from what the storage decodes to — the storage is
            // authoritative, so a scrub-repaired store decodes to
            // exactly the weights already being served.
            let store = ProtectedWeights::build(&model, kind, n)?;
            let (weights, _) = store.decoded_weights();
            model = model.with_weight_data(weights, store.format_label());
            plans_built += model.depth();
            protected = Some(store);
        } else if let Some((kind, n)) = spec.weight_format {
            model = model.quantize_weights(kind, n)?;
            plans_built += model.depth();
        }
        if spec.fused {
            assert!(
                !spec.protected,
                "fused GEMM and protected storage are mutually exclusive \
                 (protected snapshots rebuild from decoded storage)"
            );
            // Panics with a precise message if the weight format is
            // missing or unsupported — the build step, so a bad spec
            // fails loudly here, not at serve time.
            model = model.with_fused_gemm();
        }
        if let Some((kind, n)) = spec.act_format {
            let calib = FrozenMlp::synth_inputs(spec.seed ^ 0xCA11_B8A7, CALIB_ROWS, spec.dims[0]);
            // Freezing the activation plans resolves their codebooks
            // against the process-wide cache: each miss takes the cache's
            // write lock exactly once, so the lock-acquisition delta is
            // the number of fresh builds, and the rest were cache hits.
            let builds_before = adaptivfloat::lut::write_lock_acquisitions();
            model = model.with_act_quant(kind, n, &calib)?;
            let fresh_builds = adaptivfloat::lut::write_lock_acquisitions() - builds_before;
            plans_built += model.depth();
            plan_cache_hits += model.prewarm_codebooks().saturating_sub(fresh_builds);
        }
        Ok(BuiltVariant {
            warmed_codebooks: model.prewarm_codebooks(),
            model,
            plans_built,
            plan_cache_hits,
            protected,
            spec: spec.clone(),
        })
    }

    /// Publish a built variant: swap it in atomically under its id
    /// (the generation is this registry's previous one plus one, or 0)
    /// and journal it. A protected variant's storage becomes this
    /// registry's own. Returns the published snapshot.
    pub fn publish(&self, built: BuiltVariant) -> Arc<ModelVariant> {
        let mut map = self.inner.write().expect("registry poisoned");
        let generation = map.get(&built.spec.id).map_or(0, |v| v.generation + 1);
        let variant = Arc::new(ModelVariant {
            id: built.spec.id.clone(),
            model: built.model,
            warmed_codebooks: built.warmed_codebooks,
            plans_built: built.plans_built,
            plan_cache_hits: built.plan_cache_hits,
            generation,
            protected: built.protected.map(|p| Arc::new(Mutex::new(p))),
            spec: built.spec,
        });
        map.insert(variant.id.clone(), Arc::clone(&variant));
        drop(map);
        if let Some(journal) = self.journal() {
            journal.on_register(&variant);
        }
        variant
    }

    /// Publish a variant reconstructed from durable storage, preserving
    /// its recovered generation and counters. Recovery-only: nothing is
    /// journaled (the journal's own records produced this state), and
    /// any existing entry under the id is replaced.
    pub fn install(&self, parts: RestoredParts) -> Arc<ModelVariant> {
        let variant = Arc::new(ModelVariant {
            id: parts.spec.id.clone(),
            model: parts.model,
            warmed_codebooks: parts.warmed_codebooks,
            plans_built: parts.plans_built,
            plan_cache_hits: parts.plan_cache_hits,
            generation: parts.generation,
            protected: parts.protected,
            spec: parts.spec,
        });
        self.inner
            .write()
            .expect("registry poisoned")
            .insert(variant.id.clone(), Arc::clone(&variant));
        variant
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
    /// twin when one is registered.
    /// Returns the new snapshot, or `None` if `id` is unknown or
    /// unprotected. In-flight batches keep the `Arc` they hold.
    pub fn refresh_from_storage(&self, id: &str) -> Option<Arc<ModelVariant>> {
        let current = self.get(id)?;
        let store = Arc::clone(current.protected.as_ref()?);
        let spec = current.spec.clone();
        // Decode under the store lock, build the snapshot outside it.
        let (weights, label) = {
            let guard = store.lock().expect("protected store poisoned");
            let (weights, _) = guard.decoded_weights();
            (weights, guard.format_label().to_string())
        };
        let mut model = checkpoint(&spec, self.twin_model(&spec)).with_weight_data(weights, &label);
        if let Some((kind, n)) = spec.act_format {
            let calib = FrozenMlp::synth_inputs(spec.seed ^ 0xCA11_B8A7, CALIB_ROWS, spec.dims[0]);
            // The same geometry built at registration time; it cannot
            // start failing now.
            model = model.with_act_quant(kind, n, &calib).ok()?;
        }
        let warmed_codebooks = model.prewarm_codebooks();
        let mut map = self.inner.write().expect("registry poisoned");
        let generation = map.get(id).map_or(0, |v| v.generation + 1);
        let variant = Arc::new(ModelVariant {
            id: id.to_string(),
            model,
            warmed_codebooks,
            plans_built: current.plans_built,
            plan_cache_hits: current.plan_cache_hits,
            generation,
            protected: Some(store),
            spec,
        });
        map.insert(id.to_string(), Arc::clone(&variant));
        drop(map);
        if let Some(journal) = self.journal() {
            journal.on_swap(id, variant.generation);
        }
        Some(variant)
    }

    /// Scrub `id`'s protected storage once: repair every correctable
    /// word in place; on any uncorrectable word, re-encode the storage
    /// from the f32 master and hot-swap a fresh snapshot (generation
    /// bump). Returns `None` for unknown or unprotected ids.
    pub fn scrub_variant(&self, id: &str) -> Option<ScrubOutcome> {
        let current = self.get(id)?;
        let store = Arc::clone(current.protected.as_ref()?);
        let report = {
            let mut guard = store.lock().expect("protected store poisoned");
            let report = guard.scrub();
            if report.uncorrectable > 0 {
                guard.rebuild_from_master();
            }
            report
        };
        let rebuilt = report.uncorrectable > 0;
        let generation = if rebuilt {
            // Correctable errors were repaired to bit-identical storage,
            // so the served snapshot is already right; only a rebuild
            // publishes a new one.
            self.refresh_from_storage(id)
                .map_or(current.generation, |v| v.generation)
        } else {
            current.generation
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
    /// for it.
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
        Some(twin.model.clone())
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
        assert!(v.warmed_codebooks > 0, "LUT formats must warm codebooks");
        assert_eq!(v.generation, 0);
        assert_eq!(reg.ids(), vec!["resnet/uniform8".to_string()]);
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn plan_counters_track_builds_and_cache_reuse() {
        let reg = ModelRegistry::new();
        let a = reg.register(&spec("a")).unwrap();
        // Two dense layers, weights + activations both planned.
        assert_eq!(a.plans_built, 4);
        // A second variant under the same spec resolves the same
        // codebooks: every codebook-backed activation plan is a hit.
        let b = reg.register(&spec("b")).unwrap();
        assert_eq!(b.plans_built, 4);
        assert_eq!(b.plan_cache_hits, b.warmed_codebooks);
        assert!(b.warmed_codebooks > 0);
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

    fn output_bits(v: &ModelVariant, x: &[f32]) -> Vec<u32> {
        v.model.evaluate(x).iter().map(|v| v.to_bits()).collect()
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
        let reg = ModelRegistry::new();
        let v = reg.register(&spec("p").protected()).unwrap();
        let x = FrozenMlp::synth_inputs(4, 1, 16);
        let want = output_bits(&v, x.row(0));
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
        // answers exactly what the original served.
        let refreshed = reg.refresh_from_storage("p").unwrap();
        assert_eq!(output_bits(&refreshed, x.row(0)), want);
    }

    #[test]
    fn uncorrectable_upset_rebuilds_from_master_and_bumps_generation() {
        let reg = ModelRegistry::new();
        let v = reg.register(&spec("p").protected()).unwrap();
        let x = FrozenMlp::synth_inputs(4, 1, 16);
        let want = output_bits(&v, x.row(0));
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
        assert_eq!(output_bits(&current, x.row(0)), want);
        // The store Arc is shared across the swap; history survived.
        let stats = current
            .protected
            .as_ref()
            .unwrap()
            .lock()
            .unwrap()
            .ecc_stats();
        assert_eq!(stats.detected_uncorrectable, 1);
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

    /// AdaptivFloat plans run on the bit-twiddled kernel, not a LUT
    /// codebook, so the twin tests never race the process-wide codebook
    /// counter `plan_counters_track_builds_and_cache_reuse` reads.
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
