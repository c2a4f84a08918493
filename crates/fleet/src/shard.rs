//! One fleet shard: an embedded [`af_serve::Engine`] joined to its own
//! [`af_serve::DurableStore`] under `shard-NNN/` of the fleet root.
//!
//! A shard opens by **warm-start**: [`DurableStore::open`] replays the
//! shard's own checkpoint + WAL into a fresh registry (bit-identical
//! weights, zero requantization — see `af-serve::durable`), and the
//! engine starts serving straight from the recovered snapshots. A
//! replica that was killed mid-traffic therefore rejoins serving
//! exactly the bits it served before the kill; nothing about its
//! identity lives anywhere but its own store directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use af_serve::{BuiltVariant, DurableStore, Engine, EngineConfig, RecoveryReport};
use af_store::{shard_root, ContainerBody, StoreError, SyncPolicy};

/// How a shard opens its engine and store.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// The embedded engine's batching/admission policy. Set
    /// [`EngineConfig::compute_slots`] to model the shard's accelerator
    /// budget — fleet throughput then scales with the shard count
    /// instead of hiding inside one process's thread pool.
    pub engine: EngineConfig,
    /// WAL durability policy for the shard's store.
    pub sync: SyncPolicy,
    /// WAL bytes that trigger an automatic checkpoint (0 = never; keep
    /// 0 in kill/recovery tests so reopening exercises the WAL fold).
    pub rotate_bytes: u64,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            engine: EngineConfig::default(),
            sync: SyncPolicy::EveryRecord,
            rotate_bytes: 0,
        }
    }
}

/// A live shard: index, engine, store, and the recovery report from
/// its warm-start.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    root: PathBuf,
    engine: Arc<Engine>,
    store: Arc<DurableStore>,
    report: RecoveryReport,
}

impl Shard {
    /// Open shard `index` under `fleet_root`: warm-start the registry
    /// from `shard-NNN/`'s checkpoint + WAL, start the engine over it
    /// (it serves every recovered variant), and attach the store for
    /// stats.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the store open or a variant restore — a
    /// corrupt shard store fails loudly here, before serving.
    pub fn open(index: usize, fleet_root: &Path, cfg: ShardConfig) -> Result<Shard, StoreError> {
        let root = shard_root(fleet_root, index);
        let opened = DurableStore::open(&root, cfg.sync, cfg.rotate_bytes)?;
        let engine = Arc::new(Engine::start(opened.registry, cfg.engine));
        engine.attach_store(Arc::clone(&opened.store));
        Ok(Shard {
            index,
            root,
            engine,
            store: opened.store,
            report: opened.report,
        })
    }

    /// This shard's index (its identity on the ring and on disk).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's store directory (`<fleet_root>/shard-NNN`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The embedded engine — also the shard's fault seam
    /// ([`Engine::inject_fault`]).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The shard's durable store handle.
    pub fn store(&self) -> &Arc<DurableStore> {
        &self.store
    }

    /// What the warm-start recovered.
    pub fn report(&self) -> RecoveryReport {
        self.report
    }

    /// The shard's instantaneous load signal (queued + evaluating
    /// requests; refreshes the engine's gauges as a side effect).
    pub fn load(&self) -> u64 {
        self.engine.load()
    }

    /// Place a built model on this shard: publish a clone of it (or
    /// hot-swap it in) — journaled through the shard's WAL, with this
    /// shard's own generation and protected storage; the engine serves
    /// it from the next admission. The one path every placement takes,
    /// so a spec is built once however many replicas it lands on. The
    /// clone shares the built snapshot and copies only protected
    /// storage: placing copies no weights. `body` is the build's
    /// [`container_body`](BuiltVariant::container_body) when the caller
    /// places it on several shards: each shard's store then writes
    /// those bytes behind its own head instead of exporting and
    /// encoding the snapshot again.
    pub fn place(&self, built: &BuiltVariant, body: Option<&ContainerBody>) {
        self.engine.registry().publish(built.clone(), body);
    }

    /// Evict a model from this shard: answer every request already
    /// queued for it, then unregister it (journaled, so a warm-start
    /// will not resurrect it). Returns whether the model was present.
    pub fn evict(&self, id: &str) -> bool {
        self.engine.evict(id)
    }

    /// Model ids this shard currently serves.
    pub fn ids(&self) -> Vec<String> {
        self.engine.registry().ids()
    }

    /// Fold this shard's WAL into a fresh checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError`] from export or the checkpoint write.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        self.store.checkpoint()
    }

    /// Orderly shutdown: drain queued work and join the workers. (A *crash* is
    /// the opposite — just drop the shard without checkpointing; the
    /// WAL already holds everything needed to warm-start.)
    pub fn shutdown(&self) {
        self.engine.shutdown();
    }
}
