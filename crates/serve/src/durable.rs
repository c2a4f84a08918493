//! Durable serving: the bridge between the in-memory
//! [`ModelRegistry`] and the on-disk [`af_store::Store`].
//!
//! [`DurableStore::open`] replays the store (checkpoint + WAL fold) and
//! republishes every recovered variant **without requantizing
//! anything**: weights come from the persisted codes, activation plans
//! from the persisted calibrated ranges, biases and layer shapes from
//! the deterministic synthesis the registry would have run anyway (once
//! per checkpoint, however many variants share it). The
//! restored snapshots are bit-identical to what the crashed process was
//! serving. From then on the handle journals every registry mutation
//! through the WAL ([`RegistryJournal`]) and folds the log into a fresh
//! checkpoint when it outgrows a rotation threshold.
//!
//! Journal hooks never panic the serve path: persistence failures are
//! counted ([`DurableStore::journal_errors`]) and reported through the
//! stats endpoint instead.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use adaptivfloat::FormatKind;
use af_models::{FrozenMlp, ModelFamily};
use af_resilience::ProtectedCodes;
use af_store::{
    raw_f32_codes, ActRecord, ContainerBody, SpecRecord, Store, StoreError, StoredLayer,
    StoredVariant, SyncPolicy,
};

use crate::protect::{stored_layer, ProtectedWeights};
use crate::registry::{
    assemble, BuiltVariant, Decoded, ModelRegistry, ModelVariant, Ranges, RegistryJournal,
    ScrubOutcome, Weights,
};
use crate::VariantSpec;

/// Default WAL size that triggers an automatic fold into a fresh
/// checkpoint (1 MiB — hundreds of scrub records).
pub const DEFAULT_ROTATE_BYTES: u64 = 1 << 20;

/// What recovery reconstructed, for operators and the stats endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Variants republished from disk.
    pub recovered_variants: usize,
    /// WAL records folded into the recovered state.
    pub wal_records_replayed: u64,
    /// Torn trailing WAL bytes dropped.
    pub torn_tail_bytes_dropped: u64,
    /// Wall-clock cost of open + restore, microseconds.
    pub recovery_us: u64,
}

/// A durable store attached to a registry: journals mutations, rotates
/// the WAL into checkpoints, and answers stats queries.
#[derive(Debug)]
pub struct DurableStore {
    inner: Mutex<Store>,
    /// WAL size that triggers an automatic checkpoint (0 = never).
    rotate_bytes: u64,
    /// The registry this store journals for — weak, because the
    /// registry holds an `Arc` to this store through its journal slot.
    registry: Mutex<Weak<ModelRegistry>>,
    journal_errors: AtomicU64,
}

/// The result of [`DurableStore::open`]: the store handle, the registry
/// it recovered into (journaling already attached), and the report.
#[derive(Debug)]
pub struct DurableOpen {
    /// The durable store, already installed as the registry's journal.
    pub store: Arc<DurableStore>,
    /// The recovered registry — hand it to `Engine::start`.
    pub registry: Arc<ModelRegistry>,
    /// What recovery did.
    pub report: RecoveryReport,
}

fn spec_record(variant: &ModelVariant) -> SpecRecord {
    let spec = &variant.spec;
    let rebuilds = variant.protected.as_ref().map_or(0, |p| {
        p.lock().expect("protected store poisoned").rebuilds()
    });
    SpecRecord {
        id: spec.id.clone(),
        family: spec.family.label().to_string(),
        dims: spec.dims.clone(),
        seed: spec.seed,
        weight_format: spec.weight_format,
        act_format: spec.act_format,
        protected: spec.protected,
        fused: spec.fused,
        format_label: variant.model.format_name().to_string(),
        generation: variant.generation,
        rebuilds,
    }
}

/// Serialize a live variant into its container image.
///
/// Protected variants persist their stored layers as they stand (the
/// storage is authoritative; latent faults stay under ECC on disk
/// exactly as in memory). Quantized variants re-encode the served
/// weights through their frozen codecs — a fused layer hands over its
/// kernel operand's codes instead — and verify the codes decode back
/// bit-identically; any mismatch drops the *whole variant* to lossless
/// raw f32 layers (no codec) so restore can never serve different
/// bits. FP32 variants always persist raw f32.
pub fn export_variant(variant: &ModelVariant) -> StoredVariant {
    let layers = match &variant.protected {
        Some(protected) => {
            let guard = protected.lock().expect("protected store poisoned");
            guard.layers().to_vec()
        }
        None => snapshot_layers(&variant.model),
    };
    StoredVariant {
        spec: spec_record(variant),
        layers,
        act: act_record(&variant.model),
    }
}

impl BuiltVariant {
    /// The container body (LAYER, ACT and END sections) of this build's
    /// snapshot, encoded once for every registry it is published on
    /// (see [`ModelRegistry::publish`]). `None` for a protected build,
    /// whose storage each registry owns and exports itself.
    pub fn container_body(&self) -> Option<ContainerBody> {
        if self.protected.is_some() {
            return None;
        }
        let layers = snapshot_layers(&self.model);
        Some(ContainerBody::encode(
            &layers,
            act_record(&self.model).as_ref(),
        ))
    }
}

/// The layers of an unprotected snapshot: each layer's codes under its
/// codec when every layer's codes decode back to the served weights
/// exactly, else every layer as raw f32.
fn snapshot_layers(model: &FrozenMlp) -> Vec<StoredLayer> {
    let Some(codecs) = model.weight_codecs() else {
        return raw_layers(model);
    };
    let mut layers = Vec::with_capacity(model.depth());
    for (l, codec) in codecs.iter().enumerate() {
        let (data, _) = model.weight_data(l);
        let codes = match model.weight_codes(l) {
            Some(codes) => codec.pack_exact(&codes, &data),
            None => codec.encode_exact(&data),
        };
        let Some(codes) = codes else {
            return raw_layers(model);
        };
        let codes = ProtectedCodes::protect(codes);
        layers.push(stored_layer(model, l, Some(codec.clone()), codes));
    }
    layers
}

/// Every layer of `model` as lossless raw f32 codes.
fn raw_layers(model: &FrozenMlp) -> Vec<StoredLayer> {
    (0..model.depth())
        .map(|l| {
            let codes = raw_f32_codes(&model.weight_data(l).0);
            stored_layer(model, l, None, codes)
        })
        .collect()
}

fn act_record(model: &FrozenMlp) -> Option<ActRecord> {
    model.act_recipe().map(|(kind, n, maxes)| ActRecord {
        kind,
        n,
        maxes: maxes.to_vec(),
    })
}

fn restore_err(id: &str, context: String) -> StoreError {
    StoreError::Restore {
        id: id.to_string(),
        context,
    }
}

fn stored_family(rec: &SpecRecord) -> Result<ModelFamily, StoreError> {
    ModelFamily::from_label(&rec.family)
        .ok_or_else(|| restore_err(&rec.id, format!("unknown model family {:?}", rec.family)))
}

/// The weight encoding every stored layer shares: `Some((kind, n))`
/// when all are coded in one format at one word size, `None` when all
/// are lossless f32.
///
/// # Errors
///
/// [`StoreError::Restore`] when the layers mix raw f32 and codes, or
/// formats or word sizes.
fn stored_encoding(stored: &StoredVariant) -> Result<Option<(FormatKind, u32)>, StoreError> {
    let encoding = |layer: &StoredLayer| layer.codec.as_ref().map(|c| (c.kind(), c.width()));
    let first = stored.layers.first().and_then(encoding);
    if stored.layers.iter().any(|layer| encoding(layer) != first) {
        return Err(restore_err(
            &stored.spec.id,
            "container mixes layer encodings".to_string(),
        ));
    }
    Ok(first)
}

/// Rebuild a servable variant from its container image — **zero
/// requantization**: weights decode from the stored codes, activation
/// plans rebuild from the stored calibrated ranges, and the fused GEMM
/// re-packs from the stored recipe, all through the registry's one
/// snapshot builder. `base` is the FP32 checkpoint under the stored
/// `(family, seed, dims)`, as [`FrozenMlp::synthesize`] draws it: it
/// supplies the layer shapes checked against the container and the
/// biases. [`DurableStore::open`] synthesizes each checkpoint once and
/// hands every variant of it a copy, then installs the result at the
/// stored generation.
///
/// # Errors
///
/// [`StoreError::Restore`] when the stored spec is internally
/// inconsistent (unknown family, geometry mismatch, codes packed at
/// another width than their layer's encoding, mixed layer encodings,
/// protected without codes) or asks for a fused GEMM its codes cannot
/// take (see [`FrozenMlp::fuses`]).
pub fn restore_variant(stored: StoredVariant, base: FrozenMlp) -> Result<BuiltVariant, StoreError> {
    let rec = &stored.spec;
    let id = &rec.id;
    let family = stored_family(rec)?;
    let spec = VariantSpec {
        id: id.clone(),
        family,
        dims: rec.dims.clone(),
        seed: rec.seed,
        weight_format: rec.weight_format,
        act_format: rec.act_format,
        protected: rec.protected,
        fused: rec.fused,
    };
    if stored.layers.len() != base.depth() {
        return Err(restore_err(
            id,
            format!(
                "{} stored layers but the dims synthesize {}",
                stored.layers.len(),
                base.depth()
            ),
        ));
    }
    for (l, layer) in stored.layers.iter().enumerate() {
        let shape = base.weight_shape(l);
        if layer.rows != shape[0] || layer.cols != shape[1] {
            return Err(restore_err(
                id,
                format!(
                    "layer {l} is {}x{} on disk but {}x{} synthesized",
                    layer.rows, layer.cols, shape[0], shape[1]
                ),
            ));
        }
        layer.check_width().map_err(|e| restore_err(id, e))?;
    }
    let encoding = stored_encoding(&stored)?;
    if rec.protected && encoding.is_none() {
        return Err(restore_err(
            id,
            "protected variant stores its layers without codes".to_string(),
        ));
    }
    // Checked here, before assembly, which would panic on it.
    if rec.fused && !encoding.is_some_and(|(kind, n)| FrozenMlp::fuses(kind, n)) {
        return Err(restore_err(
            id,
            match encoding {
                Some((kind, n)) => format!("fused GEMM cannot take {kind} codes at n={n}"),
                None => "fused GEMM cannot take RawF32 layers".to_string(),
            },
        ));
    }

    let weights = if rec.protected {
        // Storage-authoritative: the parsed layers become the protected
        // store (latent faults and ECC history intact), which then
        // serves what it decodes to — exactly the registration path.
        Weights::Protected(ProtectedWeights::restore(
            &rec.format_label,
            rec.rebuilds,
            stored.layers,
        ))
    } else {
        // Every layer is coded in one format (each with its codec) or
        // none is (lossless f32).
        let codecs = stored.layers.iter().map(|l| l.codec.clone()).collect();
        let values = stored
            .layers
            .iter()
            .map(|layer| layer.decode_values().map(|(vals, _)| vals))
            .collect::<Result<_, _>>()
            .map_err(|e| restore_err(id, e))?;
        Weights::Decoded(Decoded {
            values,
            codecs,
            label: rec.format_label.clone(),
        })
    };
    // Activation plans re-plan from the frozen ranges — no calibration
    // forward pass, no fresh codebook builds beyond what the original
    // registration already cached process-wide.
    let ranges = Ranges::Frozen(
        stored
            .act
            .as_ref()
            .map(|a| (a.kind, a.n, a.maxes.as_slice())),
    );
    assemble(&spec, base, weights, ranges)
        .map_err(|e| restore_err(id, format!("stored recipe rejected: {e}")))
}

impl DurableStore {
    /// Open (or initialize) the store at `root`, recover every
    /// persisted variant into a fresh registry, and attach this handle
    /// as the registry's journal.
    ///
    /// # Errors
    ///
    /// Any typed [`StoreError`] from the store open or a variant
    /// restore. A corrupt store fails here — loudly, before serving —
    /// rather than serving wrong bits; the operator can
    /// [`af_store::Store::rollback`] to a previous checkpoint.
    pub fn open(
        root: &Path,
        sync: SyncPolicy,
        rotate_bytes: u64,
    ) -> Result<DurableOpen, StoreError> {
        let t0 = Instant::now();
        let (store, recovery) = Store::open(root, sync)?;
        let registry = Arc::new(ModelRegistry::new());
        // Every variant of one checkpoint restores from the same FP32
        // base, so each checkpoint is synthesized once per open.
        let mut checkpoints: HashMap<(ModelFamily, u64, Vec<usize>), FrozenMlp> = HashMap::new();
        let recovered_variants = recovery.variants.len();
        for stored in recovery.variants {
            let rec = &stored.spec;
            let family = stored_family(rec)?;
            let base = checkpoints
                .entry((family, rec.seed, rec.dims.clone()))
                .or_insert_with(|| FrozenMlp::synthesize(family, rec.seed, &rec.dims))
                .clone();
            let generation = rec.generation;
            registry.install(restore_variant(stored, base)?, generation);
        }
        let report = RecoveryReport {
            recovered_variants,
            wal_records_replayed: recovery.wal_records_replayed,
            torn_tail_bytes_dropped: recovery.torn_tail_bytes_dropped,
            recovery_us: t0.elapsed().as_micros() as u64,
        };
        let durable = Arc::new(DurableStore {
            inner: Mutex::new(store),
            rotate_bytes,
            registry: Mutex::new(Arc::downgrade(&registry)),
            journal_errors: AtomicU64::new(0),
        });
        registry.set_journal(Arc::clone(&durable) as Arc<dyn RegistryJournal>);
        Ok(DurableOpen {
            store: durable,
            registry,
            report,
        })
    }

    /// Journal-hook persistence failures so far (the serve path never
    /// panics on them).
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// Current store counters.
    pub fn stats(&self) -> af_store::StoreStats {
        self.inner.lock().expect("store poisoned").stats()
    }

    /// Store counters as a JSON object, with journal health appended.
    pub fn stats_json(&self) -> String {
        let base = self.stats().to_json();
        format!(
            "{},\"journal_errors\":{}}}",
            &base[..base.len() - 1],
            self.journal_errors()
        )
    }

    /// Fold the WAL into a fresh checkpoint built from the registry's
    /// current state. Returns the new checkpoint version.
    ///
    /// # Errors
    ///
    /// [`StoreError`] from the checkpoint write; the store stays on its
    /// old checkpoint on failure.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        let registry = self
            .registry
            .lock()
            .expect("registry slot poisoned")
            .upgrade()
            .ok_or_else(|| restore_err("<registry>", "registry dropped".to_string()))?;
        let mut exported = Vec::new();
        for id in registry.ids() {
            if let Some(variant) = registry.get(&id) {
                exported.push(export_variant(&variant));
            }
        }
        self.inner
            .lock()
            .expect("store poisoned")
            .checkpoint(&exported)
    }

    /// Flush any batched WAL records.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.inner.lock().expect("store poisoned").sync()
    }

    fn note_error(&self, what: &str, err: &StoreError) {
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
        eprintln!("af-serve: durable store failed to journal {what}: {err}");
    }

    fn maybe_rotate(&self) {
        if self.rotate_bytes == 0 {
            return;
        }
        let wal_bytes = self.inner.lock().expect("store poisoned").stats().wal_bytes;
        if wal_bytes < self.rotate_bytes {
            return;
        }
        if let Err(e) = self.checkpoint() {
            self.note_error("checkpoint rotation", &e);
        }
    }
}

impl RegistryJournal for DurableStore {
    fn on_register(&self, variant: &ModelVariant, body: Option<&ContainerBody>) {
        let result = match body {
            Some(body) => {
                let spec = spec_record(variant);
                self.inner
                    .lock()
                    .expect("store poisoned")
                    .persist_body(&spec, body)
            }
            None => {
                let stored = export_variant(variant);
                self.inner
                    .lock()
                    .expect("store poisoned")
                    .persist_variant(&stored)
            }
        };
        if let Err(e) = result {
            self.note_error("register", &e);
        }
        self.maybe_rotate();
    }

    fn on_scrub(&self, id: &str, outcome: &ScrubOutcome) {
        let result = self.inner.lock().expect("store poisoned").log_scrub(
            id,
            outcome.corrected as u64,
            outcome.uncorrectable as u64,
            outcome.rebuilt,
            outcome.generation,
        );
        if let Err(e) = result {
            self.note_error("scrub", &e);
        }
        self.maybe_rotate();
    }

    fn on_swap(&self, id: &str, generation: u64) {
        let result = self
            .inner
            .lock()
            .expect("store poisoned")
            .log_swap(id, generation);
        if let Err(e) = result {
            self.note_error("swap", &e);
        }
        self.maybe_rotate();
    }

    fn on_unregister(&self, id: &str) {
        let result = self
            .inner
            .lock()
            .expect("store poisoned")
            .log_unregister(id);
        if let Err(e) = result {
            self.note_error("unregister", &e);
        }
        self.maybe_rotate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivfloat::PackedCodes;

    /// Export `spec`'s registered variant with its SPEC claiming a
    /// fused GEMM, as a CRC-valid container written by another build
    /// could.
    fn claims_fused(spec: &VariantSpec) -> StoredVariant {
        let registry = ModelRegistry::new();
        let variant = registry.register(spec).expect("register");
        let mut stored = export_variant(&variant);
        stored.spec.fused = true;
        stored
    }

    /// Persist `stored` into a fresh store and open it as a registry.
    fn open_with(tag: &str, stored: &StoredVariant) -> Result<DurableOpen, StoreError> {
        let root =
            std::env::temp_dir().join(format!("af-serve-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (mut store, _) = Store::open(&root, SyncPolicy::EveryRecord).expect("fresh store");
        store.persist_variant(stored).expect("persist");
        drop(store);
        let opened = DurableStore::open(&root, SyncPolicy::EveryRecord, 0);
        let _ = std::fs::remove_dir_all(&root);
        opened
    }

    fn assert_refused(tag: &str, stored: &StoredVariant, why: &str) {
        let base = FrozenMlp::synthesize(ModelFamily::ResNet, 5, &stored.spec.dims);
        for err in [
            restore_variant(stored.clone(), base).expect_err("restore must refuse"),
            open_with(tag, stored).expect_err("open must refuse"),
        ] {
            match err {
                StoreError::Restore { id, context } => {
                    assert_eq!(id, stored.spec.id);
                    assert!(context.contains(why), "{context}");
                }
                other => panic!("expected a typed restore error, got {other:?}"),
            }
        }
    }

    /// `spec`'s registered variant with layer 0's codes re-packed at
    /// `width` bits, as a CRC-valid container written by another build
    /// could hold them.
    fn repacked(spec: &VariantSpec, width: u32) -> StoredVariant {
        let variant = ModelRegistry::new().register(spec).expect("register");
        let mut stored = export_variant(&variant);
        let layer = &mut stored.layers[0];
        let mut codes = PackedCodes::new(width);
        for code in layer.codes.codes().iter() {
            codes.push(code & ((1 << width) - 1));
        }
        layer.codes = ProtectedCodes::protect(codes);
        stored
    }

    #[test]
    fn restore_refuses_protected_codes_packed_at_another_width() {
        let af8 = VariantSpec::quantized(
            "af8",
            ModelFamily::ResNet,
            FormatKind::AdaptivFloat,
            8,
            5,
            &[12, 20, 6],
        )
        .protected();
        for spec in [af8.clone(), af8.fused()] {
            for width in [4, 16] {
                let tag = format!("width{width}-fused{}", spec.fused);
                let why = format!("code width {width} disagrees with format width 8");
                assert_refused(&tag, &repacked(&spec, width), &why);
            }
        }
    }

    #[test]
    fn restore_refuses_a_fused_recipe_over_posit_codes() {
        let spec = VariantSpec::quantized(
            "p8",
            ModelFamily::ResNet,
            FormatKind::Posit,
            8,
            5,
            &[12, 20, 6],
        )
        .protected();
        assert_refused("posit8", &claims_fused(&spec), "Posit codes at n=8");
    }

    #[test]
    fn float8_variant_exports_codes_and_restores_bit_identically() {
        // Float8 flushes tiny negative weights to -0.0; their codes must
        // keep the sign, or the export falls back to raw f32 layers.
        let spec = VariantSpec::quantized(
            "f8",
            ModelFamily::Transformer,
            FormatKind::Float,
            8,
            5,
            &[96, 192, 48],
        );
        let variant = ModelRegistry::new().register(&spec).expect("register");
        let model = &variant.model;
        let weights: Vec<Vec<u32>> = (0..model.depth())
            .map(|l| model.weight_data(l).0.iter().map(|v| v.to_bits()).collect())
            .collect();
        let neg_zero = (-0.0f32).to_bits();
        assert!(
            weights.iter().flatten().any(|&b| b == neg_zero),
            "no -0.0 weight"
        );
        let stored = export_variant(&variant);
        for layer in &stored.layers {
            assert!(layer.codec.is_some(), "{:?}", layer.codec);
        }
        let base = FrozenMlp::synthesize(ModelFamily::Transformer, 5, &spec.dims);
        let restored = restore_variant(stored, base).expect("restore").model;
        for (l, want) in weights.iter().enumerate() {
            let got: Vec<u32> = restored
                .weight_data(l)
                .0
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(&got, want, "layer {l}");
        }
        let input: Vec<f32> = (0..96).map(|i| (i as f32 * 0.37).sin()).collect();
        let bits = |v: Vec<f32>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(restored.evaluate(&input)),
            bits(model.evaluate(&input))
        );
    }

    #[test]
    fn restore_refuses_a_fused_recipe_over_raw_f32_layers() {
        let spec = VariantSpec::fp32("f", ModelFamily::ResNet, 5, &[12, 20, 6]);
        let stored = claims_fused(&spec);
        assert!(stored.layers[0].codec.is_none());
        assert_refused("rawf32", &stored, "RawF32 layers");
    }
}
