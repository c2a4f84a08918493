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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use af_resilience::SplitMix64;
use af_serve::batcher::TaggedReply;
use af_serve::{BuiltVariant, DurableStore, Engine, EngineConfig, RecoveryReport, ServeError};
use af_store::{shard_root, StoreError, SyncPolicy};

use crate::chaos::InjectedFault;
use crate::lock;

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
    /// Chaos seam: an injected fault consulted on every [`enqueue`]
    /// (`None` outside chaos runs — one relaxed read on the hot path).
    ///
    /// [`enqueue`]: Shard::enqueue
    fault: RwLock<Option<InjectedFault>>,
    /// Monotone admission counter driving the fault's deterministic
    /// error draw.
    admissions: AtomicU64,
}

impl Shard {
    /// Open shard `index` under `fleet_root`: warm-start the registry
    /// from `shard-NNN/`'s checkpoint + WAL, start the engine over it
    /// (one lane per recovered variant), and attach the store for
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
            fault: RwLock::new(None),
            admissions: AtomicU64::new(0),
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

    /// The embedded engine.
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
    /// shard's own generation and protected storage — and make sure it
    /// has a serving lane. The one path every placement takes, so a
    /// spec is built once however many replicas it lands on.
    pub fn place(&self, built: &BuiltVariant) {
        self.engine.registry().publish(built.clone());
        self.engine.ensure_lane(&built.spec.id);
    }

    /// Evict a model from this shard: drain and drop its lane, then
    /// unregister it (journaled, so a warm-start will not resurrect
    /// it). Returns whether the model was present.
    pub fn evict(&self, id: &str) -> bool {
        let had_lane = self.engine.remove_lane(id);
        let had_variant = self.engine.registry().unregister(id);
        had_lane || had_variant
    }

    /// Model ids this shard currently serves.
    pub fn ids(&self) -> Vec<String> {
        self.engine.registry().ids()
    }

    /// Admit one request into this shard's lane for `model` (the
    /// router's non-blocking submission seam; see
    /// [`Engine::enqueue`]).
    ///
    /// # Errors
    ///
    /// Admission-time [`ServeError`]s only; post-admission outcomes
    /// arrive on `reply`.
    pub fn enqueue(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        tag: u64,
        reply: &std::sync::mpsc::Sender<TaggedReply>,
    ) -> Result<(), ServeError> {
        self.admit_fault()?;
        self.engine.enqueue(model, input, deadline, tag, reply)
    }

    /// The chaos seam every routed attempt passes before its engine
    /// admission: apply the injected fault, if any.
    pub(crate) fn admit_fault(&self) -> Result<(), ServeError> {
        if let Some(fault) = *lock::read(&self.fault) {
            let n = self.admissions.fetch_add(1, Ordering::Relaxed);
            if !fault.delay.is_zero() {
                std::thread::sleep(fault.delay);
            }
            if fault.error_rate > 0.0 {
                let mut rng = SplitMix64::for_element(fault.seed, InjectedFault::DOMAIN, n);
                if rng.next_f64() < fault.error_rate {
                    return Err(ServeError::Overloaded);
                }
            }
        }
        Ok(())
    }

    /// Install (or with `None`, clear) a chaos fault on this shard's
    /// admission seam. The per-shard admission counter keeps running
    /// across installs, so a fixed `(fault.seed, schedule)` yields one
    /// deterministic error sequence per shard lifetime.
    ///
    /// A fault's `delay` sleeps on the thread that admits the attempt.
    /// In-process callers ([`FleetRouter::infer`], the chaos harness)
    /// admit on their own thread; over HTTP ([`FleetServer`]) that
    /// thread is the reactor, so a delayed shard stalls every
    /// connection for the delay — a straggler model for in-process
    /// chaos runs, not for HTTP load.
    ///
    /// [`FleetRouter::infer`]: crate::FleetRouter::infer
    /// [`FleetServer`]: crate::FleetServer
    pub fn inject_fault(&self, fault: Option<InjectedFault>) {
        *lock::write(&self.fault) = fault;
    }

    /// The currently injected chaos fault, if any.
    pub fn injected_fault(&self) -> Option<InjectedFault> {
        *lock::read(&self.fault)
    }

    /// Fold this shard's WAL into a fresh checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError`] from export or the checkpoint write.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        self.store.checkpoint()
    }

    /// Orderly shutdown: drain lanes and join workers. (A *crash* is
    /// the opposite — just drop the shard without checkpointing; the
    /// WAL already holds everything needed to warm-start.)
    pub fn shutdown(&self) {
        self.engine.shutdown();
    }
}
