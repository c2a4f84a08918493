//! The durable store: live containers, a write-ahead log, and
//! immutable checkpoints under one root directory.
//!
//! ```text
//! root/
//!   CURRENT        active checkpoint version ("0" = none); tmp+rename
//!   wal.log        mutations since that checkpoint
//!   variants/      live containers written at register time
//!   ckpt-NNNNNN/   immutable checkpoint: MANIFEST + one container per
//!                  variant, re-exported from the registry at fold time
//! ```
//!
//! Recovery is `CURRENT` → checkpoint manifest → WAL fold: the
//! checkpoint supplies base state, then each intact WAL record mutates
//! it — a `Register` re-reads the live container, `Scrub` accumulates
//! ECC deltas, `Swap` advances the generation, `Unregister` removes the
//! variant. Compaction folds the log into a fresh checkpoint and
//! truncates it; `rollback` points `CURRENT` at an older checkpoint and
//! discards everything after it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use af_resilience::EccStats;

use crate::container::{
    read_container, write_container, write_container_body, ContainerBody, SpecRecord, StoredVariant,
};
use crate::error::StoreError;
use crate::wal::{self, SyncPolicy, WalOp, WalWriter};

const CURRENT_FILE: &str = "CURRENT";
const WAL_FILE: &str = "wal.log";
const VARIANTS_DIR: &str = "variants";
const MANIFEST_FILE: &str = "MANIFEST";
/// Checkpoints kept on disk after a compaction (for rollback).
const KEEP_CHECKPOINTS: u64 = 2;

/// Counters the serving stats endpoint surfaces for the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Version of the active checkpoint (0 = none yet).
    pub checkpoint_version: u64,
    /// Records currently in the WAL (replayed + appended).
    pub wal_records: u64,
    /// WAL size in bytes, header included.
    pub wal_bytes: u64,
    /// WAL records replayed by the most recent open of this store.
    pub wal_replays: u64,
    /// Trailing WAL bytes dropped as torn at the most recent open.
    pub torn_tail_bytes_dropped: u64,
    /// Variants reconstructed from disk at the most recent open.
    pub recovered_variants: u64,
    /// Checkpoints folded by this handle.
    pub compactions: u64,
    /// Wall-clock cost of the most recent compaction, microseconds.
    pub last_compaction_us: u64,
    /// Container storage words corrected by SEC-DED while reading.
    pub ecc_corrected_on_read: u64,
}

impl StoreStats {
    /// Render as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"checkpoint_version\":{},\"wal_records\":{},\"wal_bytes\":{},\
             \"wal_replays\":{},\"torn_tail_bytes_dropped\":{},\
             \"recovered_variants\":{},\"compactions\":{},\
             \"last_compaction_us\":{},\"ecc_corrected_on_read\":{}}}",
            self.checkpoint_version,
            self.wal_records,
            self.wal_bytes,
            self.wal_replays,
            self.torn_tail_bytes_dropped,
            self.recovered_variants,
            self.compactions,
            self.last_compaction_us,
            self.ecc_corrected_on_read,
        )
    }
}

/// What [`Store::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovery {
    /// Every live variant with its WAL fold applied, in registration
    /// (WAL, then manifest) order.
    pub variants: Vec<StoredVariant>,
    /// WAL records replayed.
    pub wal_records_replayed: u64,
    /// Torn trailing WAL bytes dropped.
    pub torn_tail_bytes_dropped: u64,
}

/// Per-id accumulation of WAL effects between checkpoint base state and
/// the end of the log.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    corrected: u64,
    uncorrectable: u64,
    scrub_records: u64,
    rebuilds: u64,
    max_generation: u64,
    reload_live: bool,
}

/// Handle over a store root: owns the WAL appender and the stats.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    wal: WalWriter,
    sync: SyncPolicy,
    checkpoint_version: u64,
    stats: StoreStats,
}

fn io_ctx(what: &str, path: &Path) -> impl FnOnce(std::io::Error) -> StoreError {
    let ctx = format!("{what} {}", path.display());
    move |e| StoreError::io(ctx, e)
}

/// Map a variant id to a collision-free container file name: keep
/// `[A-Za-z0-9._-]`, replace the rest with `_`, and suffix the CRC of
/// the full id so distinct ids never share a file.
pub fn container_file_name(id: &str) -> String {
    let mut san: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    san.truncate(64);
    format!("{san}-{:08x}.afc", crate::crc::crc32(id.as_bytes()))
}

/// Map a fleet root directory and shard index to that shard's own store
/// root (`<root>/shard-NNN`). Each shard of a fleet owns a complete,
/// independent store layout (`CURRENT`, WAL, checkpoints) under its
/// subdirectory, so shards checkpoint, recover, and roll back without
/// coordinating — a killed replica warm-starts from exactly its own
/// checkpoint + WAL.
pub fn shard_root(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

fn ckpt_dir_name(version: u64) -> String {
    format!("ckpt-{version:06}")
}

fn write_text_atomic(path: &Path, text: &str) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(io_ctx("writing", &tmp))?;
    let f = std::fs::File::open(&tmp).map_err(io_ctx("reopening", &tmp))?;
    f.sync_all().map_err(io_ctx("syncing", &tmp))?;
    std::fs::rename(&tmp, path).map_err(io_ctx("renaming into", path))?;
    Ok(())
}

impl Store {
    /// Open (or initialize) the store at `root`, replaying any
    /// checkpoint and WAL into a [`Recovery`].
    ///
    /// # Errors
    ///
    /// Any typed [`StoreError`]: unreadable root, a `CURRENT` naming a
    /// missing checkpoint, or a container that fails its checks. Torn
    /// WAL tails are *not* errors — they are dropped and counted.
    pub fn open(root: &Path, sync: SyncPolicy) -> Result<(Store, Recovery), StoreError> {
        std::fs::create_dir_all(root).map_err(io_ctx("creating store root", root))?;
        let variants_dir = root.join(VARIANTS_DIR);
        std::fs::create_dir_all(&variants_dir).map_err(io_ctx("creating", &variants_dir))?;

        // 1. Active checkpoint.
        let current_path = root.join(CURRENT_FILE);
        let checkpoint_version = if current_path.exists() {
            let text =
                std::fs::read_to_string(&current_path).map_err(io_ctx("reading", &current_path))?;
            text.trim()
                .parse::<u64>()
                .map_err(|_| StoreError::Malformed {
                    path: current_path.clone(),
                    context: format!("CURRENT does not name a version: {:?}", text.trim()),
                })?
        } else {
            0
        };

        // 2. Base state from the checkpoint manifest.
        let mut order: Vec<String> = Vec::new();
        let mut by_id: HashMap<String, StoredVariant> = HashMap::new();
        let mut ecc_corrected_on_read = 0u64;
        if checkpoint_version > 0 {
            let dir = root.join(ckpt_dir_name(checkpoint_version));
            if !dir.is_dir() {
                return Err(StoreError::MissingCheckpoint {
                    version: checkpoint_version,
                    path: dir,
                });
            }
            let manifest_path = dir.join(MANIFEST_FILE);
            let manifest = std::fs::read_to_string(&manifest_path)
                .map_err(io_ctx("reading", &manifest_path))?;
            for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
                let file = dir.join(line.trim());
                let (v, report) = read_container(&file)?;
                ecc_corrected_on_read += report.words_corrected as u64;
                order.push(v.spec.id.clone());
                by_id.insert(v.spec.id.clone(), v);
            }
        }

        // 3. Fold the WAL.
        let wal_path = root.join(WAL_FILE);
        let (wal, replayed, torn) = if wal_path.exists() {
            let rp = wal::replay(&wal_path)?;
            let mut folds: HashMap<String, Fold> = HashMap::new();
            for rec in &rp.records {
                match &rec.op {
                    WalOp::Register { id, generation } => {
                        // Last register wins and resets accumulated
                        // deltas: the fresh container already carries
                        // its own history.
                        if !by_id.contains_key(id) && !order.contains(id) {
                            order.push(id.clone());
                        }
                        folds.insert(
                            id.clone(),
                            Fold {
                                max_generation: *generation,
                                reload_live: true,
                                ..Fold::default()
                            },
                        );
                    }
                    WalOp::Scrub {
                        id,
                        corrected,
                        uncorrectable,
                        rebuilt,
                        generation,
                    } => {
                        let f = folds.entry(id.clone()).or_default();
                        f.corrected += corrected;
                        f.uncorrectable += uncorrectable;
                        f.scrub_records += 1;
                        f.rebuilds += u64::from(*rebuilt);
                        f.max_generation = f.max_generation.max(*generation);
                    }
                    WalOp::Swap { id, generation } => {
                        let f = folds.entry(id.clone()).or_default();
                        f.max_generation = f.max_generation.max(*generation);
                    }
                    WalOp::Unregister { id } => {
                        folds.remove(id);
                        by_id.remove(id);
                        order.retain(|o| o != id);
                    }
                }
            }
            // Apply folds: reload live containers for re-registered
            // ids, then layer the accumulated deltas on top.
            for (id, fold) in &folds {
                if fold.reload_live {
                    let file = variants_dir.join(container_file_name(id));
                    let (v, report) = read_container(&file)?;
                    if v.spec.id != *id {
                        return Err(StoreError::Malformed {
                            path: file,
                            context: format!(
                                "container holds id {:?} but the WAL registered {:?}",
                                v.spec.id, id
                            ),
                        });
                    }
                    ecc_corrected_on_read += report.words_corrected as u64;
                    if !order.contains(id) {
                        order.push(id.clone());
                    }
                    by_id.insert(id.clone(), v);
                }
                let Some(v) = by_id.get_mut(id) else {
                    // Scrub/swap records for an id whose register was
                    // checkpointed away and since unregistered — or a
                    // log written against a rolled-back checkpoint.
                    continue;
                };
                v.spec.generation = v.spec.generation.max(fold.max_generation);
                v.spec.rebuilds += fold.rebuilds;
                if fold.corrected + fold.uncorrectable + fold.scrub_records > 0 {
                    if let Some(layer) = v.layers.first_mut() {
                        layer.codes.absorb_stats(&EccStats {
                            corrected: fold.corrected,
                            detected_uncorrectable: fold.uncorrectable,
                            scrub_passes: fold.scrub_records,
                        });
                    }
                }
            }
            let records = rp.records.len() as u64;
            let torn = rp.torn_bytes_dropped;
            let wal = WalWriter::resume(&wal_path, sync, &rp)?;
            (wal, records, torn)
        } else {
            (WalWriter::create(&wal_path, sync)?, 0, 0)
        };

        let variants: Vec<StoredVariant> = order
            .into_iter()
            .filter_map(|id| by_id.remove(&id))
            .collect();
        let stats = StoreStats {
            checkpoint_version,
            wal_records: wal.records(),
            wal_bytes: wal.bytes(),
            wal_replays: replayed,
            torn_tail_bytes_dropped: torn,
            recovered_variants: variants.len() as u64,
            compactions: 0,
            last_compaction_us: 0,
            ecc_corrected_on_read,
        };
        let recovery = Recovery {
            variants,
            wal_records_replayed: replayed,
            torn_tail_bytes_dropped: torn,
        };
        Ok((
            Store {
                root: root.to_path_buf(),
                wal,
                sync,
                checkpoint_version,
                stats,
            },
            recovery,
        ))
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current counters (WAL figures refreshed).
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.wal_records = self.wal.records();
        s.wal_bytes = self.wal.bytes();
        s.checkpoint_version = self.checkpoint_version;
        s
    }

    /// Durably persist a (re)registered variant: write its container
    /// into the live area first, then log the registration. A crash
    /// between the two leaves an orphan container that recovery
    /// ignores.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn persist_variant(&mut self, v: &StoredVariant) -> Result<(), StoreError> {
        self.persist_body(&v.spec, &ContainerBody::encode(&v.layers, v.act.as_ref()))
    }

    /// [`persist_variant`](Self::persist_variant) for a variant whose
    /// container body is already encoded: the container written is
    /// `spec`'s head followed by `body`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn persist_body(
        &mut self,
        spec: &SpecRecord,
        body: &ContainerBody,
    ) -> Result<(), StoreError> {
        let path = self
            .root
            .join(VARIANTS_DIR)
            .join(container_file_name(&spec.id));
        write_container_body(&path, spec, body)?;
        self.wal.append(&WalOp::Register {
            id: spec.id.clone(),
            generation: spec.generation,
        })?;
        Ok(())
    }

    /// Log a scrub outcome.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn log_scrub(
        &mut self,
        id: &str,
        corrected: u64,
        uncorrectable: u64,
        rebuilt: bool,
        generation: u64,
    ) -> Result<u64, StoreError> {
        self.wal.append(&WalOp::Scrub {
            id: id.to_string(),
            corrected,
            uncorrectable,
            rebuilt,
            generation,
        })
    }

    /// Log a hot swap.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn log_swap(&mut self, id: &str, generation: u64) -> Result<u64, StoreError> {
        self.wal.append(&WalOp::Swap {
            id: id.to_string(),
            generation,
        })
    }

    /// Log an unregistration and remove the live container
    /// (best-effort; the WAL record is what recovery honors).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the WAL append fails.
    pub fn log_unregister(&mut self, id: &str) -> Result<u64, StoreError> {
        let seq = self.wal.append(&WalOp::Unregister { id: id.to_string() })?;
        let _ = std::fs::remove_file(self.root.join(VARIANTS_DIR).join(container_file_name(id)));
        Ok(seq)
    }

    /// Flush any batched WAL records to disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Fold the WAL into a fresh checkpoint built from `variants` (the
    /// caller re-exports current registry state), advance `CURRENT`,
    /// truncate the log, and clear the live area. Old checkpoints
    /// beyond a keep-window are pruned. Returns the new version.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure. The store stays on the
    /// old checkpoint if anything fails before `CURRENT` is rewritten.
    pub fn checkpoint(&mut self, variants: &[StoredVariant]) -> Result<u64, StoreError> {
        let t0 = Instant::now();
        let version = self.checkpoint_version + 1;
        let dir = self.root.join(ckpt_dir_name(version));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io_ctx("clearing stale checkpoint", &dir))?;
        }
        std::fs::create_dir_all(&dir).map_err(io_ctx("creating checkpoint", &dir))?;
        let mut manifest = String::new();
        for v in variants {
            let file = container_file_name(&v.spec.id);
            write_container(&dir.join(&file), v)?;
            manifest.push_str(&file);
            manifest.push('\n');
        }
        write_text_atomic(&dir.join(MANIFEST_FILE), &manifest)?;
        // Point CURRENT at the new checkpoint — the commit point.
        write_text_atomic(&self.root.join(CURRENT_FILE), &format!("{version}\n"))?;
        self.checkpoint_version = version;
        // The log and live area are now folded in; reset both.
        self.wal = WalWriter::create(&self.root.join(WAL_FILE), self.sync)?;
        let live = self.root.join(VARIANTS_DIR);
        if let Ok(entries) = std::fs::read_dir(&live) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        // Prune checkpoints older than the keep-window.
        let mut pruned = version.saturating_sub(KEEP_CHECKPOINTS);
        while pruned > 0 {
            let old = self.root.join(ckpt_dir_name(pruned));
            if !old.exists() {
                break;
            }
            let _ = std::fs::remove_dir_all(&old);
            pruned -= 1;
        }
        self.stats.compactions += 1;
        self.stats.last_compaction_us = t0.elapsed().as_micros() as u64;
        Ok(version)
    }

    /// Roll a store root back to an older checkpoint: point `CURRENT`
    /// at `version` and discard the WAL and live containers written
    /// after it. The store must not be open elsewhere.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingCheckpoint`] if the checkpoint directory is
    /// gone; [`StoreError::Io`] on filesystem failure.
    pub fn rollback(root: &Path, version: u64) -> Result<(), StoreError> {
        if version > 0 {
            let dir = root.join(ckpt_dir_name(version));
            if !dir.is_dir() {
                return Err(StoreError::MissingCheckpoint { version, path: dir });
            }
        }
        write_text_atomic(&root.join(CURRENT_FILE), &format!("{version}\n"))?;
        let _ = std::fs::remove_file(root.join(WAL_FILE));
        if let Ok(entries) = std::fs::read_dir(root.join(VARIANTS_DIR)) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{SpecRecord, StoredLayer};
    use adaptivfloat::{FormatKind, StorageCodec};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("af-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn variant(id: &str, generation: u64) -> StoredVariant {
        let w: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.05).collect();
        let codec = StorageCodec::fit(FormatKind::AdaptivFloat, 8, &w).unwrap();
        StoredVariant {
            spec: SpecRecord {
                id: id.to_string(),
                family: "ResNet".to_string(),
                dims: vec![4, 3],
                seed: 9,
                weight_format: Some((FormatKind::AdaptivFloat, 8)),
                act_format: None,
                protected: true,
                fused: false,
                format_label: "AdaptivFloat<8,3>+secded".to_string(),
                generation,
                rebuilds: 0,
            },
            layers: vec![StoredLayer {
                rows: 4,
                cols: 3,
                codes: af_resilience::ProtectedCodes::protect(codec.encode_slice(&w)),
                codec: Some(codec),
            }],
            act: None,
        }
    }

    #[test]
    fn register_crash_recover_roundtrips() {
        let root = tmp_root("reg");
        {
            let (mut store, rec) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
            assert!(rec.variants.is_empty());
            store.persist_variant(&variant("m/a", 0)).unwrap();
            store.persist_variant(&variant("m/b", 0)).unwrap();
            // No clean shutdown: drop simulates the process dying.
        }
        let (store, rec) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
        assert_eq!(rec.wal_records_replayed, 2);
        assert_eq!(rec.torn_tail_bytes_dropped, 0);
        let ids: Vec<&str> = rec.variants.iter().map(|v| v.spec.id.as_str()).collect();
        assert_eq!(ids, vec!["m/a", "m/b"]);
        assert_eq!(rec.variants[0], variant("m/a", 0));
        assert_eq!(store.stats().recovered_variants, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wal_fold_applies_scrubs_swaps_and_unregisters() {
        let root = tmp_root("fold");
        {
            let (mut store, _) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
            store.persist_variant(&variant("m/a", 0)).unwrap();
            store.persist_variant(&variant("m/b", 0)).unwrap();
            store.log_scrub("m/a", 3, 1, true, 1).unwrap();
            store.log_scrub("m/a", 2, 0, false, 1).unwrap();
            store.log_swap("m/a", 2).unwrap();
            store.log_unregister("m/b").unwrap();
        }
        let (_, rec) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
        assert_eq!(rec.variants.len(), 1);
        let v = &rec.variants[0];
        assert_eq!(v.spec.id, "m/a");
        assert_eq!(v.spec.generation, 2);
        assert_eq!(v.spec.rebuilds, 1);
        let stats = v.layers[0].codes.stats();
        assert_eq!(stats.corrected, 5);
        assert_eq!(stats.detected_uncorrectable, 1);
        assert_eq!(stats.scrub_passes, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_folds_wal_and_survives_restart() {
        let root = tmp_root("ckpt");
        {
            let (mut store, _) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
            store.persist_variant(&variant("m/a", 0)).unwrap();
            store.log_scrub("m/a", 7, 0, false, 0).unwrap();
            // The caller folds current state into the checkpoint.
            let mut folded = variant("m/a", 0);
            folded.spec.generation = 4;
            let version = store.checkpoint(&[folded]).unwrap();
            assert_eq!(version, 1);
            let s = store.stats();
            assert_eq!(s.checkpoint_version, 1);
            assert_eq!(s.wal_records, 0);
            assert_eq!(s.compactions, 1);
            // Post-checkpoint mutations land in the fresh WAL.
            store.log_swap("m/a", 5).unwrap();
        }
        let (store, rec) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
        assert_eq!(store.stats().checkpoint_version, 1);
        assert_eq!(rec.wal_records_replayed, 1);
        assert_eq!(rec.variants.len(), 1);
        assert_eq!(rec.variants[0].spec.generation, 5);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rollback_discards_later_state() {
        let root = tmp_root("rollback");
        {
            let (mut store, _) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
            store.persist_variant(&variant("m/a", 0)).unwrap();
            store.checkpoint(&[variant("m/a", 0)]).unwrap();
            store.persist_variant(&variant("m/new", 0)).unwrap();
            store.log_swap("m/a", 9).unwrap();
        }
        Store::rollback(&root, 1).unwrap();
        let (store, rec) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
        assert_eq!(store.stats().checkpoint_version, 1);
        assert_eq!(rec.variants.len(), 1);
        assert_eq!(rec.variants[0].spec.id, "m/a");
        assert_eq!(rec.variants[0].spec.generation, 0);
        assert_eq!(rec.wal_records_replayed, 0);
        // Rolling back to a pruned checkpoint fails typed.
        assert_eq!(
            Store::rollback(&root, 42).unwrap_err().kind(),
            "missing_checkpoint"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn current_naming_missing_checkpoint_fails_typed() {
        let root = tmp_root("missing");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(CURRENT_FILE), "3\n").unwrap();
        let err = Store::open(&root, SyncPolicy::EveryRecord).unwrap_err();
        assert_eq!(err.kind(), "missing_checkpoint");
        std::fs::write(root.join(CURRENT_FILE), "not-a-number\n").unwrap();
        assert_eq!(
            Store::open(&root, SyncPolicy::EveryRecord)
                .unwrap_err()
                .kind(),
            "malformed"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn container_file_names_never_collide() {
        let a = container_file_name("model/α:8");
        let b = container_file_name("model_–:8");
        assert_ne!(a, b);
        assert!(a.ends_with(".afc"));
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
    }

    #[test]
    fn shard_roots_are_distinct_and_stable() {
        let root = Path::new("/data/fleet");
        assert_eq!(shard_root(root, 0), Path::new("/data/fleet/shard-000"));
        assert_eq!(shard_root(root, 12), Path::new("/data/fleet/shard-012"));
        assert_ne!(shard_root(root, 1), shard_root(root, 2));
    }

    #[test]
    fn reregister_resets_fold_deltas() {
        let root = tmp_root("rereg");
        {
            let (mut store, _) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
            store.persist_variant(&variant("m/a", 0)).unwrap();
            store.log_scrub("m/a", 100, 0, false, 0).unwrap();
            // Re-register: a new container supersedes the history.
            store.persist_variant(&variant("m/a", 1)).unwrap();
        }
        let (_, rec) = Store::open(&root, SyncPolicy::EveryRecord).unwrap();
        assert_eq!(rec.variants.len(), 1);
        assert_eq!(rec.variants[0].spec.generation, 1);
        assert_eq!(rec.variants[0].layers[0].codes.stats().corrected, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
