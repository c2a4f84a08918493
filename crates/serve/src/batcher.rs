//! The serving engine: one run queue drained by a fixed pool of compute
//! workers, admission control in front, deadlines throughout.
//!
//! A variant gets a bounded queue (its *lane*) on its first admission,
//! so the engine serves whatever its registry holds. [`Engine::infer`]
//! validates the request against the current registry snapshot, admits
//! it (or sheds with [`ServeError::Overloaded`]), and blocks on a reply
//! channel. A variant with queued work sits once in a FIFO of runnable
//! ids; each worker takes the next one and whatever it has queued, up
//! to `max_batch` (work-conserving: no timer holds a request back),
//! drops requests whose deadline already passed, re-reads the registry
//! so hot swaps take effect at batch granularity, and answers each row
//! of one [`af_models::FrozenMlp::evaluate_batch`] pass — bit-identical
//! to per-sample evaluation by the invariant pinned in `af-models`. A
//! variant runs at most one pass at a time, so its next batch forms
//! while the previous pass runs.
//!
//! The engine is also an **embeddable fleet shard**: [`Engine::evict`]
//! drains and unregisters a model as a router rebalances placement,
//! [`Engine::enqueue`] admits a request without blocking on its reply
//! (the seam a hedging router races replicas through — both attempts
//! answer into one caller-owned channel, tagged so the router knows
//! which replica won), [`Engine::load`] exposes the structural
//! `queue_depth + in_flight` load signal replica selection reads, and
//! [`EngineConfig::compute_slots`] sizes the worker pool so one shard
//! models one accelerator's worth of compute.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use af_models::BatchScratch;

use crate::durable::DurableStore;
use crate::registry::ModelRegistry;
use crate::scrub::{ScrubSummary, Scrubber};
use crate::stats::ServeStats;
use crate::sys::Waker;

/// Batching, admission, and deadline policy for every variant.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Largest batch one evaluate pass may carry.
    pub max_batch: usize,
    /// Bounded queue capacity per variant (admission limit).
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// How often the background scrubber sweeps protected variant
    /// storage (`None` disables the scrubber thread;
    /// [`Engine::scrub_now`] always works).
    pub scrub_period: Option<Duration>,
    /// Compute workers, i.e. concurrent evaluate passes across *all*
    /// variants of this engine (`None` = one per core, from
    /// [`std::thread::available_parallelism`]). One engine then models
    /// one shard's worth of compute — its variants contend for the
    /// workers the way a shard's models contend for its accelerator —
    /// which is what makes in-process fleet scaling benches honest:
    /// aggregate throughput grows with shards because each shard brings
    /// its own workers.
    pub compute_slots: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_batch: 16,
            queue_cap: 256,
            default_deadline: Duration::from_secs(2),
            scrub_period: None,
            compute_slots: None,
        }
    }
}

/// A runtime fault installed with [`Engine::inject_fault`], the one seam
/// through which chaos runs, straggler and supervisor tests make an
/// engine misbehave. Each part acts where the real fault would, so
/// every caller (in-process routing, the reactor, degraded serving,
/// probes) meets it alike.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InjectedFault {
    /// A straggling accelerator: every evaluate pass sleeps this long
    /// on its compute worker, before its requests count as in flight —
    /// never on the thread that admitted the request.
    pub delay: Duration,
    /// A hard-failing engine: every admission is refused with
    /// [`ServeError::Overloaded`] before any other check.
    pub shed: bool,
    /// A worker fault: an evaluate pass panics mid-batch when a batched
    /// input's first element bit-equals this value.
    pub panic_on: Option<f32>,
}

impl InjectedFault {
    /// An engine that deterministically sheds every admission.
    pub fn hard_failure() -> InjectedFault {
        InjectedFault {
            shed: true,
            ..InjectedFault::default()
        }
    }

    /// An engine whose every evaluate pass takes `delay` longer.
    pub fn slow(delay: Duration) -> InjectedFault {
        InjectedFault {
            delay,
            ..InjectedFault::default()
        }
    }
}

/// Why a request was not answered with an output vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No variant registered under this id.
    UnknownModel(String),
    /// Input width does not match the variant.
    BadInput {
        /// The variant's input width.
        expected: usize,
        /// What the request carried.
        got: usize,
    },
    /// The variant's queue is full (or an injected fault sheds every
    /// admission) — request shed.
    Overloaded,
    /// The deadline passed before the request was evaluated.
    DeadlineExceeded,
    /// The engine is shutting down.
    ShuttingDown,
    /// Every replica that could serve this request sits behind an open
    /// circuit breaker (fleet-tier degradation; a single engine never
    /// produces this). Carries the earliest half-open probe ETA so the
    /// `503` can tell the caller when a retry has a chance.
    Unavailable {
        /// Milliseconds until the earliest breaker admits a probe.
        retry_after_ms: u64,
    },
    /// The evaluate pass panicked mid-batch (its worker caught the
    /// panic and serves on; this request's batch was lost).
    Internal,
}

impl ServeError {
    /// The HTTP status the protocol layer maps this error onto.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::UnknownModel(_) => 404,
            ServeError::BadInput { .. } => 400,
            ServeError::Overloaded => 429,
            ServeError::DeadlineExceeded => 504,
            ServeError::ShuttingDown => 503,
            ServeError::Unavailable { .. } => 503,
            ServeError::Internal => 500,
        }
    }

    /// The `Retry-After` hint (whole seconds) a `429`/`503` response
    /// should carry, `None` for statuses that take no hint. A shed
    /// (`429`) invites an immediate jittered retry; a shutdown gives
    /// the restart a second; a breaker-open degradation reports the
    /// earliest half-open probe ETA.
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded => Some(0),
            ServeError::ShuttingDown => Some(1),
            ServeError::Unavailable { retry_after_ms } => {
                Some(retry_after_ms.div_ceil(1000).max(1))
            }
            _ => None,
        }
    }

    /// Whether a fleet router may replay this request against another
    /// replica: the failure is a property of *this* shard right now
    /// (saturation, restart, a lost batch, an expired local deadline, a
    /// model this shard does not carry yet), not of the request itself.
    /// Only [`ServeError::BadInput`] is a deterministic client error.
    pub fn is_failover(&self) -> bool {
        !matches!(self, ServeError::BadInput { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(id) => write!(f, "unknown model variant: {id}"),
            ServeError::BadInput { expected, got } => {
                write!(f, "bad input width: expected {expected}, got {got}")
            }
            ServeError::Overloaded => write!(f, "overloaded: queue full, request shed"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before evaluation"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Unavailable { retry_after_ms } => write!(
                f,
                "unavailable: every replica quarantined, next probe in {retry_after_ms}ms"
            ),
            ServeError::Internal => write!(f, "internal error: batch lost to a worker fault"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The reply channel payload of [`Engine::enqueue`]: the caller's tag
/// (so one channel can collect racing hedged attempts) and the result.
pub type TaggedReply = (u64, Result<Vec<f32>, ServeError>);

/// The answering half of an admitted request: the caller's tag, its
/// reply channel, and (for event-loop callers) the waker that tells the
/// reactor a reply landed. Consumed by exactly one send.
#[derive(Debug)]
struct ReplyHandle {
    tag: u64,
    sender: mpsc::Sender<TaggedReply>,
    waker: Option<Arc<Waker>>,
}

impl ReplyHandle {
    fn send(self, result: Result<Vec<f32>, ServeError>) {
        let _ = self.sender.send((self.tag, result));
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

/// One admitted request waiting in its variant's queue. A job is built
/// only once admission has passed every check.
///
/// **Answer-on-drop invariant**: every admitted job produces exactly
/// one tagged reply. The worker answers explicitly through
/// [`Job::answer`]; a job dropped any other way — a panicking evaluate
/// pass unwinding its batch — answers [`ServeError::Internal`] from its
/// `Drop`. A blocking caller keeps its disconnect-free guarantee, and
/// an event-loop caller (which cannot watch for sender disconnects on
/// its shared channel) is guaranteed a wakeup instead of a connection
/// parked forever.
#[derive(Debug)]
struct Job {
    input: Vec<f32>,
    deadline: Instant,
    reply: Option<ReplyHandle>,
}

impl Job {
    fn answer(mut self, result: Result<Vec<f32>, ServeError>) {
        if let Some(reply) = self.reply.take() {
            reply.send(result);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            reply.send(Err(ServeError::Internal));
        }
    }
}

/// One variant's admitted requests.
#[derive(Debug, Default)]
struct Lane {
    jobs: VecDeque<Job>,
    /// In the runnable FIFO or inside a pass: a variant runs at most
    /// one pass at a time and sits in the FIFO at most once.
    scheduled: bool,
    /// Being evicted: admissions answer [`ServeError::UnknownModel`].
    retiring: bool,
}

/// Everything the engine's one mutex guards.
#[derive(Debug, Default)]
struct RunQueue {
    lanes: HashMap<String, Lane>,
    /// Ids of variants with queued work and no pass running.
    runnable: VecDeque<String>,
    stopping: bool,
}

/// The state the engine shares with its compute workers.
#[derive(Debug)]
struct Core {
    registry: Arc<ModelRegistry>,
    stats: Arc<ServeStats>,
    cfg: EngineConfig,
    fault: RwLock<Option<InjectedFault>>,
    run: Mutex<RunQueue>,
    /// Signalled when a variant becomes runnable or the engine stops.
    ready: Condvar,
    /// Signalled when a retiring lane goes idle.
    drained: Condvar,
    /// Requests inside each worker's current evaluate pass (structural
    /// gauge: the worker stores its batch size around the pass and its
    /// panic handler clears it, so it can never drift).
    evaluating: Box<[AtomicU64]>,
}

/// The serving engine — also the in-process client used by tests, and
/// the embeddable shard a fleet router (`af-fleet`) routes to.
#[derive(Debug)]
pub struct Engine {
    core: Arc<Core>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    scrubber: Mutex<Option<Scrubber>>,
    store: Mutex<Option<Arc<DurableStore>>>,
}

impl Engine {
    /// Start [`compute_slots`](EngineConfig::compute_slots) compute
    /// workers over `registry`; every variant it holds, now or later, is
    /// served. A panic mid-batch fails that batch closed (its requests
    /// get [`ServeError::Internal`]) and the worker serves on. With
    /// [`scrub_period`](EngineConfig::scrub_period) set, a background
    /// scrubber sweeps protected variant storage at that cadence.
    ///
    /// # Panics
    ///
    /// If `max_batch` or a set `compute_slots` is zero.
    pub fn start(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Engine {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let workers = cfg
            .compute_slots
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        assert!(workers > 0, "compute_slots must be positive when set");
        let stats = Arc::new(ServeStats::default());
        let scrubber = cfg
            .scrub_period
            .map(|period| Scrubber::start(Arc::clone(&registry), Arc::clone(&stats), period));
        let core = Arc::new(Core {
            registry,
            stats,
            cfg,
            fault: RwLock::new(None),
            run: Mutex::new(RunQueue::default()),
            ready: Condvar::new(),
            drained: Condvar::new(),
            evaluating: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let workers = (0..workers)
            .map(|slot| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name("af-serve:worker".to_string())
                    .spawn(move || core.work(slot))
                    .expect("spawn compute worker")
            })
            .collect();
        Engine {
            core,
            workers: Mutex::new(workers),
            scrubber: Mutex::new(scrubber),
            store: Mutex::new(None),
        }
    }

    /// Attach the durable store behind this engine's registry so
    /// `GET /stats` reports its counters (checkpoint version, WAL
    /// length, recovery figures) under a `"store"` key. Attachment is
    /// reporting-only: journaling is wired at the registry, not here.
    pub fn attach_store(&self, store: Arc<DurableStore>) {
        *self.store.lock().expect("store slot poisoned") = Some(store);
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.core.registry
    }

    /// The engine's counters. Load gauges in snapshots taken directly
    /// from this handle reflect the last [`Engine::load`] /
    /// [`Engine::stats_json`] refresh; call [`Engine::load`] first for
    /// a current reading.
    pub fn stats(&self) -> &ServeStats {
        &self.core.stats
    }

    /// Check the counter conservation laws: received equals admitted +
    /// shed + rejected, and admitted equals completed + expired +
    /// failed once admitted work still queued or evaluating (a hedge
    /// loser, say) is answered, which this waits up to 10 s for.
    ///
    /// # Panics
    ///
    /// If either law fails.
    pub fn assert_conserved(&self) {
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut s = self.stats().snapshot();
        while s.admitted != s.answered() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
            s = self.stats().snapshot();
        }
        assert_eq!(
            s.received,
            s.admitted + s.shed + s.rejected,
            "received must equal admitted + shed + rejected: {s:?}"
        );
        assert_eq!(
            s.admitted,
            s.answered(),
            "admitted must equal completed + expired + failed: {s:?}"
        );
    }

    /// The engine's policy.
    pub fn config(&self) -> EngineConfig {
        self.core.cfg
    }

    /// Install (or with `None`, clear) this engine's fault, effective
    /// from the next admission and the next evaluate pass.
    pub fn inject_fault(&self, fault: Option<InjectedFault>) {
        *self.core.fault.write().expect("fault slot poisoned") = fault;
    }

    /// The fault currently installed, if any.
    pub fn injected_fault(&self) -> Option<InjectedFault> {
        *self.core.fault.read().expect("fault slot poisoned")
    }

    /// Requests waiting in `id`'s queue.
    pub fn queue_depth(&self, id: &str) -> usize {
        self.core.lock().lanes.get(id).map_or(0, |l| l.jobs.len())
    }

    /// Evict `id` from this engine: refuse new admissions for it
    /// ([`ServeError::UnknownModel`]), wait until every request already
    /// queued is answered by the still-registered variant, then
    /// unregister it (journaled, so a warm-start will not resurrect
    /// it). Returns whether the model was present.
    pub fn evict(&self, id: &str) -> bool {
        // A retiring lane refuses admissions, so none slips in between
        // the drain and the unregister. It is (re)made on every wakeup:
        // a concurrent eviction of `id` may have removed it, and an
        // admission that read the registry first may have made another.
        let run = self.core.lock();
        let run = self
            .core
            .drained
            .wait_while(run, |run| {
                let lane = run.lanes.entry(id.to_string()).or_default();
                lane.retiring = true;
                lane.scheduled
            })
            .expect("run queue poisoned");
        drop(run);
        let had_variant = self.core.registry.unregister(id);
        let mut run = self.core.lock();
        // Only an idle lane goes: a scheduled one still owes answers.
        if run.lanes.get(id).is_some_and(|l| !l.scheduled) {
            run.lanes.remove(id);
        }
        had_variant
    }

    /// Serve one request under the default deadline (blocking).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]: unknown variant, bad width, shed, expired
    /// deadline, or shutdown.
    pub fn infer(&self, model: &str, input: Vec<f32>) -> Result<Vec<f32>, ServeError> {
        self.infer_deadline(model, input, self.core.cfg.default_deadline)
    }

    /// Serve one request that must complete within `deadline`.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]: unknown variant, bad width, shed, expired
    /// deadline, or shutdown.
    pub fn infer_deadline(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<Vec<f32>, ServeError> {
        let (reply, receiver) = mpsc::channel();
        self.enqueue(model, input, deadline, 0, &reply)?;
        // An admitted job answers exactly once, even when dropped (see
        // `Job`), so the queued clone of this sender always sends.
        drop(reply);
        receiver
            .recv()
            .map_or(Err(ServeError::Internal), |(_, result)| result)
    }

    /// Admit one request without blocking on its reply: validate it
    /// against the current registry snapshot, stamp it with `deadline`
    /// and the caller's `tag`, and push it into the model's lane. The
    /// eventual answer arrives on `reply` as `(tag, result)` — one
    /// channel can therefore collect several racing attempts (a hedging
    /// router's primary and secondary), the tag saying which one
    /// answered. If every sender clone is dropped before the worker
    /// answers, the worker's send fails silently: a hedge loser is
    /// discarded for free.
    ///
    /// # Errors
    ///
    /// Admission-time failures only: unknown variant, bad width, shed
    /// ([`ServeError::Overloaded`]), or shutdown. Post-admission
    /// failures (deadline, worker fault) arrive on `reply`.
    pub fn enqueue(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
    ) -> Result<(), ServeError> {
        self.enqueue_inner(model, input, deadline, tag, reply, None)
    }

    /// [`Engine::enqueue`] for event-loop callers: identical admission,
    /// but the eventual reply send is followed by `waker.wake()`, so a
    /// reactor blocked in `epoll_wait` learns the answer landed on its
    /// (non-pollable) mpsc channel. Every admitted request wakes exactly
    /// once — worker answers and the answer-on-drop path both wake.
    ///
    /// # Errors
    ///
    /// Admission-time failures only, exactly as [`Engine::enqueue`].
    pub fn enqueue_waking(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
        waker: &Arc<Waker>,
    ) -> Result<(), ServeError> {
        self.enqueue_inner(model, input, deadline, tag, reply, Some(Arc::clone(waker)))
    }

    fn enqueue_inner(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
        waker: Option<Arc<Waker>>,
    ) -> Result<(), ServeError> {
        self.core.stats.on_received();
        let admitted = self.admit(model, input, deadline, tag, reply, waker);
        match &admitted {
            Ok(()) => self.core.stats.on_admitted(),
            Err(ServeError::Overloaded) => self.core.stats.on_shed(),
            Err(_) => self.core.stats.on_rejected(),
        }
        admitted
    }

    fn admit(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
        waker: Option<Arc<Waker>>,
    ) -> Result<(), ServeError> {
        if self.injected_fault().is_some_and(|f| f.shed) {
            return Err(ServeError::Overloaded);
        }
        let unknown = || ServeError::UnknownModel(model.to_string());
        let variant = self.core.registry.get(model).ok_or_else(unknown)?;
        let expected = variant.model.in_dim();
        if input.len() != expected {
            return Err(ServeError::BadInput {
                expected,
                got: input.len(),
            });
        }
        let mut run = self.core.lock();
        if run.stopping {
            return Err(ServeError::ShuttingDown);
        }
        if !run.lanes.contains_key(model) {
            run.lanes.insert(model.to_string(), Lane::default());
        }
        let run = &mut *run;
        let lane = run.lanes.get_mut(model).expect("lane inserted above");
        if lane.retiring {
            return Err(unknown());
        }
        if lane.jobs.len() >= self.core.cfg.queue_cap {
            return Err(ServeError::Overloaded);
        }
        lane.jobs.push_back(Job {
            input,
            deadline: Instant::now() + deadline,
            reply: Some(ReplyHandle {
                tag,
                sender: reply.clone(),
                waker,
            }),
        });
        if !lane.scheduled {
            lane.scheduled = true;
            run.runnable.push_back(model.to_string());
            self.core.ready.notify_one();
        }
        Ok(())
    }

    /// The shard's instantaneous load signal: requests waiting in
    /// variant queues plus requests inside an evaluate pass. Computed
    /// from structural reads (queue lengths, per-worker evaluating
    /// counters) — never from paired events, so it cannot drift — and
    /// published into the stats gauges as a side effect.
    pub fn load(&self) -> u64 {
        let queue_depth = (self.core.lock().lanes.values())
            .map(|l| l.jobs.len() as u64)
            .sum::<u64>();
        let in_flight = (self.core.evaluating.iter())
            .map(|e| e.load(Ordering::Relaxed))
            .sum::<u64>();
        self.core.stats.set_load(queue_depth, in_flight);
        queue_depth.saturating_add(in_flight)
    }

    /// Run one scrub pass inline over every protected variant (the same
    /// sweep the background scrubber performs on its period).
    pub fn scrub_now(&self) -> ScrubSummary {
        crate::scrub::scrub_pass(&self.core.registry, &self.core.stats)
    }

    /// Engine-wide stats plus per-variant detail as a JSON document (the
    /// body of `GET /stats`). The in-process path has no connection
    /// tier, so it reports `"connections":null`.
    pub fn stats_json(&self) -> String {
        self.stats_json_with(None)
    }

    /// [`Engine::stats_json`] with the reactor's connection-tier gauges
    /// spliced in as the `"connections"` object. Each variant's
    /// `warmed_codebooks` is read off its live snapshot.
    pub fn stats_json_with(&self, connections: Option<&str>) -> String {
        let cfg = self.core.cfg;
        self.load(); // refresh the queue_depth / in_flight gauges
        let mut variants = String::new();
        for (i, id) in self.core.registry.ids().iter().enumerate() {
            if i > 0 {
                variants.push(',');
            }
            let depth = self.queue_depth(id);
            match self.core.registry.get(id) {
                Some(v) => {
                    let act = v
                        .model
                        .act_format_name()
                        .map_or("null".to_string(), |a| format!("\"{a}\""));
                    let protection = match &v.protected {
                        Some(store) => {
                            let store = store.lock().expect("protected store poisoned");
                            let ecc = store.ecc_stats();
                            format!(
                                "true,\"ecc_corrected\":{},\"ecc_uncorrectable\":{},\
                                 \"store_rebuilds\":{}",
                                ecc.corrected,
                                ecc.detected_uncorrectable,
                                store.rebuilds(),
                            )
                        }
                        None => "false".to_string(),
                    };
                    variants.push_str(&format!(
                        "{{\"id\":\"{}\",\"family\":\"{}\",\"weight_format\":\"{}\",\
                         \"act_format\":{},\"in_dim\":{},\"out_dim\":{},\"params\":{},\
                         \"generation\":{},\"warmed_codebooks\":{},\"protected\":{},\
                         \"fused_gemm\":{},\"fused_layers\":{},\"weight_bytes\":{},\
                         \"queue_depth\":{}}}",
                        v.id,
                        v.model.family().label(),
                        v.model.format_name(),
                        act,
                        v.model.in_dim(),
                        v.model.out_dim(),
                        v.model.param_count(),
                        v.generation,
                        v.model.prewarm_codebooks(),
                        protection,
                        v.model.fused_layers() > 0,
                        v.model.fused_layers(),
                        v.model.weight_bytes(),
                        depth,
                    ));
                }
                None => variants.push_str(&format!("{{\"id\":\"{id}\",\"queue_depth\":{depth}}}")),
            }
        }
        let store = self
            .store
            .lock()
            .expect("store slot poisoned")
            .as_ref()
            .map_or("null".to_string(), |s| s.stats_json());
        format!(
            "{{{},\"max_batch\":{},\"queue_cap\":{},\"compute_slots\":{},\
             \"connections\":{},\"store\":{},\"variants\":[{}]}}\n",
            self.stats().snapshot().json_fields(),
            cfg.max_batch,
            cfg.queue_cap,
            cfg.compute_slots
                .map_or("null".to_string(), |n| n.to_string()),
            connections.unwrap_or("null"),
            store,
            variants,
        )
    }

    /// Stop admitting, let the workers drain every queue, and join
    /// them. Idempotent.
    pub fn shutdown(&self) {
        self.core.lock().stopping = true;
        self.core.ready.notify_all();
        if let Some(mut scrubber) = self.scrubber.lock().expect("scrubber poisoned").take() {
            scrubber.stop();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Core {
    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        self.run.lock().expect("run queue poisoned")
    }

    /// Compute worker `slot`: run one pass per runnable batch until the
    /// engine stops and nothing is left to run.
    fn work(&self, slot: usize) {
        // Worker-lifetime buffers: the flat input rows and the model's
        // ping-pong scratch grow to the steady-state batch size once,
        // after which the evaluate pass performs no heap allocation
        // (the variant's frozen plans quantize in place and each matmul
        // writes into scratch).
        let mut flat: Vec<f32> = Vec::new();
        let mut scratch = BatchScratch::new();
        let mut done = None;
        while let Some((id, batch)) = self.next_batch(done.take()) {
            let pass = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_pass(&id, batch, slot, &mut flat, &mut scratch);
            }));
            if pass.is_err() {
                // The unwound batch's jobs answered Internal on drop;
                // count them, clear the gauge, and serve on with fresh
                // scratch.
                let lost = self.evaluating[slot].swap(0, Ordering::Relaxed);
                self.stats.on_failed(lost);
                self.stats.on_worker_restart();
                scratch = BatchScratch::new();
            }
            done = Some(id);
        }
    }

    /// Hand back the variant whose pass just ended (`done`): it rejoins
    /// the FIFO if work arrived meanwhile and goes idle otherwise. Then
    /// wait for the next runnable variant and take whatever it has
    /// queued, up to `max_batch`. `None` once the engine stops with
    /// nothing left to run.
    fn next_batch(&self, done: Option<String>) -> Option<(String, Vec<Job>)> {
        let mut run = self.lock();
        if let Some(id) = done {
            let lane = run
                .lanes
                .get_mut(&id)
                .expect("a scheduled lane is never removed");
            if lane.jobs.is_empty() {
                lane.scheduled = false;
                if lane.retiring {
                    self.drained.notify_all();
                }
            } else {
                run.runnable.push_back(id);
            }
        }
        loop {
            if let Some(id) = run.runnable.pop_front() {
                let lane = run.lanes.get_mut(&id).expect("a runnable lane exists");
                let n = self.cfg.max_batch.min(lane.jobs.len());
                let batch = lane.jobs.drain(..n).collect();
                return Some((id, batch));
            }
            if run.stopping {
                return None;
            }
            run = self.ready.wait(run).expect("run queue poisoned");
        }
    }

    /// One evaluate pass of variant `id` on worker `slot`: sleep out an
    /// injected delay, drop the dead, evaluate the rest as a single
    /// pass, fan rows back out.
    fn run_pass(
        &self,
        id: &str,
        batch: Vec<Job>,
        slot: usize,
        flat: &mut Vec<f32>,
        scratch: &mut BatchScratch,
    ) {
        let stats = &self.stats;
        let fault = *self.fault.read().expect("fault slot poisoned");
        if let Some(delay) = fault.map(|f| f.delay).filter(|d| !d.is_zero()) {
            std::thread::sleep(delay);
        }
        let variant = self.registry.get(id);
        let now = Instant::now();
        let mut rows: Vec<Job> = Vec::with_capacity(batch.len());
        for job in batch {
            // A hot swap or an unregister may have changed the variant
            // since admission: answer a mismatch instead of panicking.
            let refusal = match &variant {
                _ if job.deadline < now => ServeError::DeadlineExceeded,
                None => ServeError::UnknownModel(id.to_string()),
                Some(v) if job.input.len() != v.model.in_dim() => ServeError::BadInput {
                    expected: v.model.in_dim(),
                    got: job.input.len(),
                },
                Some(_) => {
                    rows.push(job);
                    continue;
                }
            };
            if refusal == ServeError::DeadlineExceeded {
                stats.on_expired();
            } else {
                stats.on_failed(1);
            }
            job.answer(Err(refusal));
        }
        let Some(variant) = variant.filter(|_| !rows.is_empty()) else {
            return;
        };
        // The gauge covers the pass from here, so the worker's panic
        // handler knows how many requests an unwind below failed.
        self.evaluating[slot].store(rows.len() as u64, Ordering::Relaxed);
        // Injected worker fault: panic after the batch is formed, so the
        // in-flight jobs drop on unwind exactly as a real evaluation
        // fault would leave them.
        let poisoned = |t: f32| {
            (rows.iter()).any(|j| j.input.first().map(|v| v.to_bits()) == Some(t.to_bits()))
        };
        if fault.and_then(|f| f.panic_on).is_some_and(poisoned) {
            panic!("injected worker fault in variant {id}");
        }
        stats.on_batch(rows.len());
        flat.clear();
        for job in &rows {
            flat.extend_from_slice(&job.input);
        }
        let outputs = variant.model.evaluate_batch_into(flat, rows.len(), scratch);
        // Clear the gauge before replying: the channel send/recv pair
        // synchronizes, so a caller that has its answer never observes
        // the batch that produced it as still in flight.
        self.evaluating[slot].store(0, Ordering::Relaxed);
        let out_dim = variant.model.out_dim();
        for (r, job) in rows.into_iter().enumerate() {
            stats.on_completed();
            job.answer(Ok(outputs[r * out_dim..(r + 1) * out_dim].to_vec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::VariantSpec;
    use adaptivfloat::FormatKind;
    use af_models::{FrozenMlp, ModelFamily};

    fn registry() -> Arc<ModelRegistry> {
        let reg = ModelRegistry::new();
        reg.register(&VariantSpec::fp32(
            "resnet/fp32",
            ModelFamily::ResNet,
            3,
            &[12, 24, 6],
        ))
        .unwrap();
        reg.register(&VariantSpec::quantized(
            "resnet/adaptivfloat8",
            ModelFamily::ResNet,
            FormatKind::AdaptivFloat,
            8,
            3,
            &[12, 24, 6],
        ))
        .unwrap();
        Arc::new(reg)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_replies_are_bit_identical_to_direct_evaluation() {
        let reg = registry();
        let engine = Arc::new(Engine::start(
            Arc::clone(&reg),
            EngineConfig {
                max_batch: 8,
                ..EngineConfig::default()
            },
        ));
        let handles: Vec<_> = (0..16u64)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let id = if i % 2 == 0 {
                        "resnet/fp32"
                    } else {
                        "resnet/adaptivfloat8"
                    };
                    let x = FrozenMlp::synth_inputs(100 + i, 1, 12);
                    (id, x.row(0).to_vec(), engine.infer(id, x.row(0).to_vec()))
                })
            })
            .collect();
        for h in handles {
            let (id, input, got) = h.join().unwrap();
            let direct = reg.get(id).unwrap().model.evaluate(&input);
            let got: Vec<u32> = got.unwrap().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{id}");
        }
        let snap = engine.stats().snapshot();
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn unknown_model_and_bad_width_are_rejected_at_admission() {
        let engine = Engine::start(registry(), EngineConfig::default());
        assert!(matches!(
            engine.infer("nope", vec![0.0; 12]),
            Err(ServeError::UnknownModel(_))
        ));
        assert_eq!(
            engine.infer("resnet/fp32", vec![0.0; 5]),
            Err(ServeError::BadInput {
                expected: 12,
                got: 5
            })
        );
        assert!(!ServeError::BadInput {
            expected: 12,
            got: 5
        }
        .is_failover());
        assert!(ServeError::Overloaded.is_failover());
        assert!(ServeError::UnknownModel("x".into()).is_failover());
        assert_eq!(engine.stats().snapshot().rejected, 2);
        engine.assert_conserved();
    }

    #[test]
    fn saturated_queue_sheds_instead_of_queueing_unboundedly() {
        let engine = Arc::new(Engine::start(
            registry(),
            EngineConfig {
                max_batch: 1,
                queue_cap: 2,
                ..EngineConfig::default()
            },
        ));
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(60))));
        let handles: Vec<_> = (0..10u64)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let x = FrozenMlp::synth_inputs(i, 1, 12);
                    engine.infer("resnet/fp32", x.row(0).to_vec())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded)))
            .count();
        assert!(ok >= 1, "some requests must be served");
        assert!(shed >= 1, "a saturated bounded queue must shed");
        assert_eq!(ok + shed, 10, "unexpected third outcome: {results:?}");
        assert_eq!(engine.stats().snapshot().shed, shed as u64);
        engine.assert_conserved();
    }

    #[test]
    fn injected_shed_refuses_first_and_balances() {
        let engine = Engine::start(registry(), EngineConfig::default());
        engine.inject_fault(Some(InjectedFault::hard_failure()));
        let x = FrozenMlp::synth_inputs(2, 1, 12);
        // The shed comes before every other admission check.
        for (id, input) in [("resnet/fp32", x.row(0).to_vec()), ("nope", vec![0.0; 3])] {
            assert_eq!(engine.infer(id, input), Err(ServeError::Overloaded));
        }
        let snap = engine.stats().snapshot();
        assert_eq!((snap.received, snap.shed, snap.admitted), (2, 2, 0));
        engine.inject_fault(None);
        assert_eq!(engine.injected_fault(), None);
        assert!(engine.infer("resnet/fp32", x.row(0).to_vec()).is_ok());
        engine.assert_conserved();
    }

    #[test]
    fn expired_deadline_is_reported_not_evaluated() {
        let engine = Engine::start(
            registry(),
            EngineConfig {
                max_batch: 4,
                ..EngineConfig::default()
            },
        );
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(40))));
        let x = FrozenMlp::synth_inputs(9, 1, 12);
        // Deadline far shorter than the injected service time.
        let got = engine.infer_deadline("resnet/fp32", x.row(0).to_vec(), Duration::from_millis(5));
        assert_eq!(got, Err(ServeError::DeadlineExceeded));
        assert_eq!(engine.stats().snapshot().expired, 1);
        engine.assert_conserved();
    }

    #[test]
    fn shutdown_drains_queued_work_then_refuses_new_work() {
        // Shutdown wakes the idle worker (or `shutdown` would never
        // join it), answers what is queued, and refuses what comes after.
        let reg = registry();
        let engine = Engine::start(
            Arc::clone(&reg),
            EngineConfig {
                max_batch: 1,
                compute_slots: Some(1),
                ..EngineConfig::default()
            },
        );
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(20))));
        let x = FrozenMlp::synth_inputs(1, 3, 12);
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            let input = x.row(i).to_vec();
            engine
                .enqueue("resnet/fp32", input, Duration::from_secs(10), i as u64, &tx)
                .unwrap();
        }
        engine.shutdown();
        drop(tx);
        let model = &reg.get("resnet/fp32").unwrap().model;
        let replies: Vec<TaggedReply> = rx.iter().collect();
        assert_eq!(replies.len(), 3);
        for (tag, result) in replies {
            assert_eq!(result.unwrap(), model.evaluate(x.row(tag as usize)));
        }
        assert_eq!(
            engine.infer("resnet/fp32", x.row(0).to_vec()),
            Err(ServeError::ShuttingDown)
        );
        engine.assert_conserved();
    }

    #[test]
    fn panicked_worker_fails_the_batch_closed_and_restarts() {
        let trigger = 1234.5f32;
        let reg = registry();
        let engine = Engine::start(
            Arc::clone(&reg),
            EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
        );
        engine.inject_fault(Some(InjectedFault {
            panic_on: Some(trigger),
            ..InjectedFault::default()
        }));
        let mut poison = vec![0.0f32; 12];
        poison[0] = trigger;
        // The poisoned batch fails with an explicit 500, never a hang.
        assert_eq!(
            engine.infer("resnet/fp32", poison),
            Err(ServeError::Internal)
        );
        assert_eq!(ServeError::Internal.http_status(), 500);
        // The worker caught the panic: the same variant still serves.
        let x = FrozenMlp::synth_inputs(7, 1, 12);
        let direct = reg.get("resnet/fp32").unwrap().model.evaluate(x.row(0));
        let got = engine.infer("resnet/fp32", x.row(0).to_vec()).unwrap();
        assert_eq!(got, direct);
        assert!(engine.stats().snapshot().worker_restarts >= 1);
        // The worker's panic handler reset the structural in-flight
        // gauge, and the lost batch counts as failed.
        assert_eq!(engine.load(), 0);
        assert_eq!(engine.stats().snapshot().failed, 1);
        engine.assert_conserved();
    }

    #[test]
    fn stats_json_lists_variants() {
        let engine = Engine::start(registry(), EngineConfig::default());
        let json = engine.stats_json();
        assert!(json.contains("\"id\":\"resnet/adaptivfloat8\""));
        assert!(json.contains("\"weight_format\":\"AdaptivFloat<8,3>\""));
        assert!(json.contains("\"queue_depth\":0"));
        assert!(json.contains("\"in_flight\":0"));
        assert!(json.contains("\"load\":0"));
        assert!(json.contains("\"compute_slots\":null"));
        assert!(json.contains("\"protected\":false"));
        assert!(json.contains("\"fused_gemm\":false"));
        assert!(json.contains("\"fused_layers\":0"));
        assert!(json.contains("\"weight_bytes\":"));
        assert!(json.contains("\"worker_restarts\":0"));
        // Read off the live snapshots: AdaptivFloat activation plans run
        // on the kernel, the fp32 variant has none.
        assert!(json.contains("\"warmed_codebooks\":0"));
    }

    #[test]
    fn variants_registered_after_start_are_served() {
        let reg = registry();
        let engine = Engine::start(Arc::clone(&reg), EngineConfig::default());
        reg.register(&VariantSpec::fp32(
            "late/fp32",
            ModelFamily::ResNet,
            9,
            &[12, 24, 6],
        ))
        .unwrap();
        let x = FrozenMlp::synth_inputs(5, 1, 12);
        let direct = reg.get("late/fp32").unwrap().model.evaluate(x.row(0));
        let got = engine.infer("late/fp32", x.row(0).to_vec()).unwrap();
        assert_eq!(bits(&got), bits(&direct));
        engine.assert_conserved();
    }

    #[test]
    fn evict_answers_queued_requests_then_unregisters() {
        // Requests queued behind a slow pass when the eviction lands are
        // answered by the still-registered variant; unregistering first
        // would fail them with UnknownModel.
        let reg = registry();
        let engine = Engine::start(
            Arc::clone(&reg),
            EngineConfig {
                max_batch: 1,
                compute_slots: Some(1),
                ..EngineConfig::default()
            },
        );
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(30))));
        let n = 4;
        let x = FrozenMlp::synth_inputs(31, n, 12);
        let want: Vec<Vec<u32>> = (0..n)
            .map(|i| bits(&reg.get("resnet/fp32").unwrap().model.evaluate(x.row(i))))
            .collect();
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let input = x.row(i).to_vec();
            engine
                .enqueue("resnet/fp32", input, Duration::from_secs(10), i as u64, &tx)
                .unwrap();
        }
        assert!(engine.evict("resnet/fp32"));
        assert!(reg.get("resnet/fp32").is_none(), "evict unregisters");
        for _ in 0..n {
            let (tag, result) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(bits(&result.unwrap()), want[tag as usize], "request {tag}");
        }
        assert!(matches!(
            engine.infer("resnet/fp32", x.row(0).to_vec()),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(!engine.evict("resnet/fp32"), "already gone");
        // The other variant is untouched.
        let direct = reg
            .get("resnet/adaptivfloat8")
            .unwrap()
            .model
            .evaluate(x.row(0));
        let got = engine
            .infer("resnet/adaptivfloat8", x.row(0).to_vec())
            .unwrap();
        assert_eq!(bits(&got), bits(&direct));
        engine.assert_conserved();
    }

    /// A journal whose unregister record takes a while to write, as a
    /// durable store's does, keeping an eviction between its unregister
    /// and its lane removal long enough for admissions to race it.
    #[derive(Debug)]
    struct SlowUnregister;

    impl crate::registry::RegistryJournal for SlowUnregister {
        fn on_register(&self, _: &crate::ModelVariant, _: Option<&af_store::ContainerBody>) {}
        fn on_scrub(&self, _: &str, _: &crate::registry::ScrubOutcome) {}
        fn on_swap(&self, _: &str, _: u64) {}
        fn on_unregister(&self, _: &str) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn evicting_a_never_admitted_variant_races_admissions_safely() {
        // A variant placed here but never requested has no lane when the
        // eviction lands. Admissions racing it are each answered (by the
        // variant or with UnknownModel), none is dropped, and no worker
        // meets a lane removed under it, even with a second eviction of
        // the same id racing the first.
        let reg = Arc::new(ModelRegistry::new());
        reg.set_journal(Arc::new(SlowUnregister));
        let engine = Arc::new(Engine::start(
            Arc::clone(&reg),
            EngineConfig {
                queue_cap: 8,
                compute_slots: Some(2),
                ..EngineConfig::default()
            },
        ));
        // Slow passes keep a racing admission's job unanswered until
        // the eviction is done with the lane.
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(3))));
        let x = FrozenMlp::synth_inputs(77, 1, 12);
        let spec = |id: &str| VariantSpec::fp32(id, ModelFamily::ResNet, 7, &[12, 24, 6]);
        for round in 0..100 {
            // Two ids, each re-registered after its eviction.
            let id = format!("race/fp32-{}", round % 2);
            reg.register(&spec(&id)).unwrap();
            let want = bits(&reg.get(&id).unwrap().model.evaluate(x.row(0)));
            let start = Arc::new(std::sync::Barrier::new(6));
            let submitters: Vec<_> = (0..4)
                .map(|_| {
                    let (engine, start) = (Arc::clone(&engine), Arc::clone(&start));
                    let (id, input, want) = (id.clone(), x.row(0).to_vec(), want.clone());
                    std::thread::spawn(move || {
                        let (tx, rx) = mpsc::channel();
                        let deadline = Duration::from_secs(10);
                        let mut sent = 0;
                        start.wait();
                        loop {
                            match engine.enqueue(&id, input.clone(), deadline, 0, &tx) {
                                Ok(()) => sent += 1,
                                Err(ServeError::Overloaded) => {}
                                Err(ServeError::UnknownModel(_)) => break,
                                Err(e) => panic!("{id}: {e}"),
                            }
                        }
                        for _ in 0..sent {
                            match rx.recv_timeout(deadline).unwrap().1 {
                                Ok(got) => assert_eq!(bits(&got), want, "{id}"),
                                Err(e) => assert!(matches!(e, ServeError::UnknownModel(_)), "{e}"),
                            }
                        }
                    })
                })
                .collect();
            let evictor = {
                let (engine, start, id) = (Arc::clone(&engine), Arc::clone(&start), id.clone());
                std::thread::spawn(move || {
                    start.wait();
                    engine.evict(&id)
                })
            };
            start.wait();
            let evicted = [engine.evict(&id), evictor.join().unwrap()];
            assert_eq!(
                evicted.iter().filter(|&&e| e).count(),
                1,
                "{id}: {evicted:?}"
            );
            for s in submitters {
                s.join().unwrap();
            }
        }
        engine.assert_conserved();
        reg.register(&spec("race/fp32-0")).unwrap();
        let want = bits(&reg.get("race/fp32-0").unwrap().model.evaluate(x.row(0)));
        let got = engine.infer("race/fp32-0", x.row(0).to_vec()).unwrap();
        assert_eq!(bits(&got), want, "the engine serves on");
    }

    #[test]
    fn enqueue_collects_tagged_replies_on_one_channel() {
        let reg = registry();
        let engine = Engine::start(Arc::clone(&reg), EngineConfig::default());
        let x = FrozenMlp::synth_inputs(21, 1, 12);
        let (tx, rx) = mpsc::channel();
        engine
            .enqueue(
                "resnet/fp32",
                x.row(0).to_vec(),
                Duration::from_secs(2),
                7,
                &tx,
            )
            .unwrap();
        engine
            .enqueue(
                "resnet/adaptivfloat8",
                x.row(0).to_vec(),
                Duration::from_secs(2),
                8,
                &tx,
            )
            .unwrap();
        let mut seen = std::collections::HashMap::new();
        for _ in 0..2 {
            let (tag, result) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            seen.insert(tag, result.unwrap());
        }
        assert_eq!(
            seen[&7],
            reg.get("resnet/fp32").unwrap().model.evaluate(x.row(0))
        );
        assert_eq!(
            seen[&8],
            reg.get("resnet/adaptivfloat8")
                .unwrap()
                .model
                .evaluate(x.row(0))
        );
        // A dropped receiver discards the loser silently.
        let (tx2, rx2) = mpsc::channel();
        engine
            .enqueue(
                "resnet/fp32",
                x.row(0).to_vec(),
                Duration::from_secs(2),
                0,
                &tx2,
            )
            .unwrap();
        drop(rx2);
        drop(tx2);
        // The worker's send fails without panicking and it serves on.
        std::thread::sleep(Duration::from_millis(30));
        let direct = reg.get("resnet/fp32").unwrap().model.evaluate(x.row(0));
        assert_eq!(
            engine.infer("resnet/fp32", x.row(0).to_vec()).unwrap(),
            direct
        );
    }

    #[test]
    fn compute_slots_serialize_evaluate_passes() {
        // Two variants, one worker, a measurable per-batch service delay:
        // concurrent requests to different variants must run their passes
        // one after the other, so total wall time is ~2× the delay.
        let delay = Duration::from_millis(60);
        let engine = Arc::new(Engine::start(
            registry(),
            EngineConfig {
                max_batch: 1,
                compute_slots: Some(1),
                ..EngineConfig::default()
            },
        ));
        engine.inject_fault(Some(InjectedFault::slow(delay)));
        let t0 = Instant::now();
        let handles: Vec<_> = ["resnet/fp32", "resnet/adaptivfloat8"]
            .into_iter()
            .map(|id| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let x = FrozenMlp::synth_inputs(3, 1, 12);
                    engine.infer(id, x.row(0).to_vec()).unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= delay * 2,
            "one slot must serialize the two passes: {elapsed:?}"
        );
    }

    #[test]
    fn arrivals_during_the_slot_wait_join_one_batch() {
        // One worker, held by a slow pass of another variant: requests
        // that trickle in meanwhile must leave in ⌈N/max_batch⌉ passes,
        // because a variant's queue is drained only when a worker takes
        // it (taking work at admission would fix batches of one).
        let (max_batch, n) = (4, 10);
        let engine = Engine::start(
            registry(),
            EngineConfig {
                max_batch,
                compute_slots: Some(1),
                ..EngineConfig::default()
            },
        );
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(150))));
        let x = FrozenMlp::synth_inputs(17, n, 12);
        let deadline = Duration::from_secs(10);
        let (tx, rx) = mpsc::channel();
        engine
            .enqueue("resnet/fp32", x.row(0).to_vec(), deadline, 0, &tx)
            .unwrap();
        // `evaluating` is set only after the injected delay, so zero
        // load here means the worker took the request and is sleeping.
        while engine.load() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..n {
            let input = x.row(i).to_vec();
            engine
                .enqueue("resnet/adaptivfloat8", input, deadline, 1 + i as u64, &tx)
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        for _ in 0..=n {
            let (tag, result) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(result.is_ok(), "request {tag}: {result:?}");
        }
        let passes = engine.stats().snapshot().batches;
        assert_eq!(passes, 1 + n.div_ceil(max_batch) as u64);
    }

    #[test]
    fn load_reflects_queued_and_evaluating_work() {
        let engine = Arc::new(Engine::start(
            registry(),
            EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
        ));
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(80))));
        assert_eq!(engine.load(), 0);
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let x = FrozenMlp::synth_inputs(i, 1, 12);
                    let _ = engine.infer("resnet/fp32", x.row(0).to_vec());
                })
            })
            .collect();
        // While the slow passes run, the load signal must be nonzero.
        std::thread::sleep(Duration::from_millis(40));
        assert!(engine.load() > 0, "waiting + evaluating work must show");
        let snap = engine.stats().snapshot();
        assert!(snap.load() > 0);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.load(), 0, "gauges return to zero when idle");
    }

    #[test]
    fn full_queue_sheds_then_frees_capacity_as_it_drains() {
        // One worker busy with a slow pass of another variant: the
        // queue admits exactly `queue_cap`, sheds the next, and admits
        // again once the worker has drained it.
        let reg = registry();
        let engine = Engine::start(
            Arc::clone(&reg),
            EngineConfig {
                max_batch: 8,
                queue_cap: 2,
                compute_slots: Some(1),
                ..EngineConfig::default()
            },
        );
        engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(150))));
        let x = FrozenMlp::synth_inputs(41, 1, 12);
        let deadline = Duration::from_secs(10);
        let (tx, rx) = mpsc::channel();
        let enqueue = |id: &str, tag| engine.enqueue(id, x.row(0).to_vec(), deadline, tag, &tx);
        enqueue("resnet/adaptivfloat8", 0).unwrap();
        while engine.load() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        enqueue("resnet/fp32", 1).unwrap();
        enqueue("resnet/fp32", 2).unwrap();
        assert_eq!(enqueue("resnet/fp32", 3), Err(ServeError::Overloaded));
        assert_eq!(engine.queue_depth("resnet/fp32"), 2);
        for _ in 0..3 {
            let (tag, result) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(result.is_ok(), "request {tag}: {result:?}");
        }
        enqueue("resnet/fp32", 4).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap().1.is_ok());
        assert_eq!(engine.stats().snapshot().shed, 1);
        engine.assert_conserved();
    }

    #[test]
    fn a_lone_request_leaves_at_once_in_a_pass_of_one() {
        // Work-conserving: no timer holds a request back for company.
        let engine = Engine::start(registry(), EngineConfig::default());
        let x = FrozenMlp::synth_inputs(43, 1, 12);
        let t0 = Instant::now();
        engine.infer("resnet/fp32", x.row(0).to_vec()).unwrap();
        let waited = t0.elapsed();
        assert!(waited < Duration::from_millis(100), "waited {waited:?}");
        let snap = engine.stats().snapshot();
        assert_eq!((snap.batches, snap.max_batch), (1, 1));
    }

    #[test]
    fn storm_answers_every_request_once_with_reference_bits() {
        // 8 submitters × 6 variants, at several worker counts and
        // batch caps: every request gets exactly one reply, carrying
        // the bits of direct evaluation.
        let reg = ModelRegistry::new();
        let ids: Vec<String> = (0..6).map(|k| format!("storm/{k}")).collect();
        for (k, id) in ids.iter().enumerate() {
            let (seed, dims) = (50 + k as u64, &[12, 24, 6]);
            let spec = if k % 2 == 0 {
                VariantSpec::fp32(id, ModelFamily::ResNet, seed, dims)
            } else {
                let kind = FormatKind::AdaptivFloat;
                VariantSpec::quantized(id, ModelFamily::ResNet, kind, 8, seed, dims)
            };
            reg.register(&spec).unwrap();
        }
        let reg = Arc::new(reg);
        let x = FrozenMlp::synth_inputs(45, 16, 12);
        let inputs: Arc<Vec<Vec<f32>>> = Arc::new((0..16).map(|r| x.row(r).to_vec()).collect());
        let want: Vec<Vec<Vec<u32>>> = (ids.iter())
            .map(|id| {
                let model = &reg.get(id).unwrap().model;
                inputs.iter().map(|x| bits(&model.evaluate(x))).collect()
            })
            .collect();
        let ids = Arc::new(ids);
        let (submitters, per) = (8, 24);
        for slots in [1, 2, 4] {
            for max_batch in [1, 3, 16] {
                let cfg = EngineConfig {
                    max_batch,
                    compute_slots: Some(slots),
                    ..EngineConfig::default()
                };
                let engine = Arc::new(Engine::start(Arc::clone(&reg), cfg));
                let (tx, rx) = mpsc::channel();
                let handles: Vec<_> = (0..submitters)
                    .map(|t| {
                        let (engine, tx) = (Arc::clone(&engine), tx.clone());
                        let (ids, inputs) = (Arc::clone(&ids), Arc::clone(&inputs));
                        std::thread::spawn(move || {
                            for tag in (t * per..(t + 1) * per).map(|t| t as u64) {
                                let (v, r) = (tag as usize % 6, tag as usize % 16);
                                let input = inputs[r].clone();
                                let deadline = Duration::from_secs(30);
                                engine.enqueue(&ids[v], input, deadline, tag, &tx).unwrap();
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                let mut seen = vec![0u32; submitters * per];
                for _ in 0..submitters * per {
                    let (tag, result) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
                    let tag = tag as usize;
                    seen[tag] += 1;
                    let got = bits(&result.unwrap());
                    assert_eq!(
                        got,
                        want[tag % 6][tag % 16],
                        "{slots} workers, batch {max_batch}"
                    );
                }
                engine.shutdown();
                assert_eq!(rx.try_iter().count(), 0, "a request answered twice");
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "{slots} workers, batch {max_batch}"
                );
                engine.assert_conserved();
            }
        }
    }
}
