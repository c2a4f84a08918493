//! The serving engine: one micro-batching lane per registered variant,
//! admission control in front, deadlines throughout.
//!
//! Every variant owns a bounded [`BatchQueue`] and one worker thread.
//! [`Engine::infer`] validates the request against the current registry
//! snapshot, admits it (or sheds with [`ServeError::Overloaded`]), and
//! blocks on a reply channel. The worker forms work-conserving batches
//! (whatever is queued, up to `max_batch`, the moment the lane is free
//! to run it), drops requests whose deadline already passed, re-reads
//! the registry so hot swaps take effect at batch granularity, and
//! answers each row of one [`af_models::FrozenMlp::evaluate_batch`] pass
//! — bit-identical to per-sample evaluation by the invariant pinned in
//! `af-models`.
//!
//! The engine is also an **embeddable fleet shard**: lanes can be added
//! and removed at runtime ([`Engine::ensure_lane`] /
//! [`Engine::remove_lane`]) as a router rebalances model placement,
//! [`Engine::enqueue`] admits a request without blocking on its reply
//! (the seam a hedging router races replicas through — both attempts
//! answer into one caller-owned channel, tagged so the router knows
//! which replica won), [`Engine::load`] exposes the structural
//! `queue_depth + in_flight` load signal replica selection reads, and
//! [`EngineConfig::compute_slots`] caps concurrent evaluate passes per
//! engine so one shard models one accelerator's worth of compute.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use af_models::BatchScratch;

use crate::durable::DurableStore;
use crate::queue::{BatchQueue, PushError};
use crate::registry::ModelRegistry;
use crate::scrub::{ScrubSummary, Scrubber};
use crate::stats::ServeStats;
use crate::sys::Waker;

/// Batching, admission, and deadline policy for every lane.
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
    /// Cap on concurrent evaluate passes across *all* lanes of this
    /// engine (`None` = unlimited). One engine then models one shard's
    /// worth of compute — its lanes contend for the slots the way a
    /// shard's models contend for its accelerator — which is what makes
    /// in-process fleet scaling benches honest: aggregate throughput
    /// grows with shards because each shard brings its own slots.
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
    /// on its lane worker, inside its compute slot — never on the
    /// thread that admitted the request.
    pub delay: Duration,
    /// A hard-failing engine: every admission is refused with
    /// [`ServeError::Overloaded`] before any other check.
    pub shed: bool,
    /// A worker fault: a lane worker panics mid-batch when a batched
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

/// The engine's fault slot, shared with every lane worker.
type FaultSlot = Arc<RwLock<Option<InjectedFault>>>;

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
    /// The lane worker died mid-batch (it was caught and restarted by
    /// the supervisor; this request's batch was lost).
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

/// One admitted request waiting in a lane.
///
/// **Answer-on-drop invariant**: every admitted job produces exactly
/// one tagged reply. The worker answers explicitly through
/// [`Job::answer`]; a job dropped any other way — a panicking evaluate
/// pass unwinding its batch, a lane draining at shutdown after its
/// registry entry vanished — answers [`ServeError::Internal`] from its
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

#[derive(Debug)]
struct Lane {
    queue: BatchQueue<Job>,
    /// Requests inside this lane's current evaluate pass (structural
    /// gauge: written by the worker around the pass, reset by the
    /// supervisor after a panic — it can never drift).
    evaluating: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// A counting semaphore over the engine's evaluate passes
/// ([`EngineConfig::compute_slots`]).
#[derive(Debug)]
struct Slots {
    free: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn acquire(self: &Arc<Slots>) -> SlotGuard {
        let mut free = self.free.lock().expect("slots poisoned");
        while *free == 0 {
            free = self.freed.wait(free).expect("slots poisoned");
        }
        *free -= 1;
        SlotGuard {
            slots: Arc::clone(self),
        }
    }
}

/// Releases its slot on drop — including an unwind out of a panicking
/// evaluate pass, so a worker fault never leaks compute capacity.
#[derive(Debug)]
struct SlotGuard {
    slots: Arc<Slots>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut free = self.slots.free.lock().expect("slots poisoned");
        *free += 1;
        self.slots.freed.notify_one();
    }
}

/// The serving engine — also the in-process client used by tests, and
/// the embeddable shard a fleet router (`af-fleet`) routes to.
#[derive(Debug)]
pub struct Engine {
    registry: Arc<ModelRegistry>,
    cfg: EngineConfig,
    lanes: RwLock<HashMap<String, Arc<Lane>>>,
    stats: Arc<ServeStats>,
    stopping: AtomicBool,
    scrubber: Mutex<Option<Scrubber>>,
    store: Mutex<Option<Arc<DurableStore>>>,
    slots: Option<Arc<Slots>>,
    fault: FaultSlot,
}

impl Engine {
    /// Spawn one micro-batching lane per variant currently registered.
    /// Variants registered afterwards get a lane through
    /// [`Engine::ensure_lane`]. Each lane worker runs under a
    /// supervisor: a panic mid-batch fails that batch closed (the
    /// in-flight requests get [`ServeError::Internal`]) and the worker
    /// restarts. With [`scrub_period`](EngineConfig::scrub_period) set,
    /// a background scrubber sweeps protected variant storage at that
    /// cadence.
    pub fn start(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Engine {
        let stats = Arc::new(ServeStats::default());
        let scrubber = cfg
            .scrub_period
            .map(|period| Scrubber::start(Arc::clone(&registry), Arc::clone(&stats), period));
        let engine = Engine {
            registry,
            cfg,
            lanes: RwLock::new(HashMap::new()),
            stats,
            stopping: AtomicBool::new(false),
            scrubber: Mutex::new(scrubber),
            store: Mutex::new(None),
            slots: cfg.compute_slots.map(|n| {
                assert!(n > 0, "compute_slots must be positive when set");
                Arc::new(Slots {
                    free: Mutex::new(n),
                    freed: Condvar::new(),
                })
            }),
            fault: FaultSlot::default(),
        };
        for id in engine.registry.ids() {
            engine.ensure_lane(&id);
        }
        engine
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
        &self.registry
    }

    /// The engine's counters. Load gauges in snapshots taken directly
    /// from this handle reflect the last [`Engine::load`] /
    /// [`Engine::stats_json`] refresh; call [`Engine::load`] first for
    /// a current reading.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
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
        let mut s = self.stats.snapshot();
        while s.admitted != s.answered() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
            s = self.stats.snapshot();
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
        self.cfg
    }

    /// Install (or with `None`, clear) this engine's fault, effective
    /// from the next admission and the next evaluate pass.
    pub fn inject_fault(&self, fault: Option<InjectedFault>) {
        *self.fault.write().expect("fault slot poisoned") = fault;
    }

    /// The fault currently installed, if any.
    pub fn injected_fault(&self) -> Option<InjectedFault> {
        *self.fault.read().expect("fault slot poisoned")
    }

    /// Current queue depth of a lane.
    pub fn queue_depth(&self, id: &str) -> Option<usize> {
        self.lanes
            .read()
            .expect("lanes poisoned")
            .get(id)
            .map(|l| l.queue.len())
    }

    /// Make sure a micro-batching lane exists for `id`, spawning its
    /// worker if this is the first sighting. Idempotent; the seam a
    /// fleet router uses when it places a model on this shard after the
    /// engine started. Returns whether a lane was created.
    ///
    /// # Panics
    ///
    /// Panics if the engine is shutting down — placement on a dying
    /// shard is a router bug.
    pub fn ensure_lane(&self, id: &str) -> bool {
        assert!(
            !self.stopping.load(Ordering::SeqCst),
            "ensure_lane on a stopped engine"
        );
        if self.lanes.read().expect("lanes poisoned").contains_key(id) {
            return false;
        }
        let mut lanes = self.lanes.write().expect("lanes poisoned");
        if lanes.contains_key(id) {
            return false;
        }
        let lane = Arc::new(Lane {
            queue: BatchQueue::bounded(self.cfg.queue_cap),
            evaluating: AtomicU64::new(0),
            worker: Mutex::new(None),
        });
        let worker = {
            let (id, lane) = (id.to_string(), Arc::clone(&lane));
            let (registry, stats) = (Arc::clone(&self.registry), Arc::clone(&self.stats));
            let (slots, fault, cfg) = (self.slots.clone(), Arc::clone(&self.fault), self.cfg);
            std::thread::Builder::new()
                .name(format!("af-serve:{id}"))
                .spawn(move || loop {
                    // Supervisor: run_lane returns only when the
                    // queue closes; a panic unwinds here, dropping
                    // the in-flight batch's jobs (each answers
                    // Internal on drop), and the lane restarts.
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        run_lane(&id, &lane, &registry, &stats, &slots, &fault, cfg);
                    }));
                    match outcome {
                        Ok(()) => break,
                        Err(_) => {
                            // The unwound pass's requests failed; count
                            // them and clear the structural gauge.
                            stats.on_failed(lane.evaluating.swap(0, Ordering::Relaxed));
                            stats.on_worker_restart();
                        }
                    }
                })
                .expect("spawn lane worker")
        };
        *lane.worker.lock().expect("lane poisoned") = Some(worker);
        lanes.insert(id.to_string(), lane);
        true
    }

    /// Tear down `id`'s lane: close its queue, join its worker (queued
    /// requests drain first), and drop it from the lane map. The
    /// registry entry is untouched — pair with
    /// [`ModelRegistry::unregister`] when evicting a model from this
    /// shard. Returns whether a lane existed.
    pub fn remove_lane(&self, id: &str) -> bool {
        let Some(lane) = self.lanes.write().expect("lanes poisoned").remove(id) else {
            return false;
        };
        lane.queue.close();
        if let Some(worker) = lane.worker.lock().expect("lane poisoned").take() {
            let _ = worker.join();
        }
        true
    }

    /// Serve one request under the default deadline (blocking).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]: unknown variant, bad width, shed, expired
    /// deadline, or shutdown.
    pub fn infer(&self, model: &str, input: Vec<f32>) -> Result<Vec<f32>, ServeError> {
        self.infer_deadline(model, input, self.cfg.default_deadline)
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
        // Drop our sender so the queued job's clone is the only one
        // left: a dropped reply sender then means the worker never
        // answered — either an orderly shutdown closed the lane, or the
        // worker panicked mid-batch and the supervisor is restarting it.
        drop(reply);
        match receiver.recv() {
            Ok((_, result)) => result,
            Err(_) if self.stopping.load(Ordering::SeqCst) => Err(ServeError::ShuttingDown),
            Err(_) => Err(ServeError::Internal),
        }
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
        self.stats.on_received();
        let admitted = self.admit(model, input, deadline, tag, reply, waker);
        match &admitted {
            Ok(()) => self.stats.on_admitted(),
            Err(ServeError::Overloaded) => self.stats.on_shed(),
            Err(_) => self.stats.on_rejected(),
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
        if self.stopping.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let lane = self
            .lanes
            .read()
            .expect("lanes poisoned")
            .get(model)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let variant = self
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let expected = variant.model.in_dim();
        if input.len() != expected {
            return Err(ServeError::BadInput {
                expected,
                got: input.len(),
            });
        }
        let job = Job {
            input,
            deadline: Instant::now() + deadline,
            reply: Some(ReplyHandle {
                tag,
                sender: reply.clone(),
                waker,
            }),
        };
        // A refused job must come back undropped: admission answers via
        // the Err return, so the job's answer-on-drop reply is defused
        // before it falls out of scope.
        lane.queue.try_push_reclaim(job).map_err(|(mut job, e)| {
            job.reply = None;
            match e {
                PushError::Full => ServeError::Overloaded,
                PushError::Closed => ServeError::ShuttingDown,
            }
        })
    }

    /// The shard's instantaneous load signal: requests waiting in lane
    /// queues plus requests inside an evaluate pass. Computed from
    /// structural reads (queue lengths, per-lane evaluating counters) —
    /// never from paired events, so it cannot drift — and published
    /// into the stats gauges as a side effect.
    pub fn load(&self) -> u64 {
        let lanes = self.lanes.read().expect("lanes poisoned");
        let mut queue_depth = 0u64;
        let mut in_flight = 0u64;
        for lane in lanes.values() {
            queue_depth += lane.queue.len() as u64;
            in_flight += lane.evaluating.load(Ordering::Relaxed);
        }
        drop(lanes);
        self.stats.set_load(queue_depth, in_flight);
        queue_depth.saturating_add(in_flight)
    }

    /// Run one scrub pass inline over every protected variant (the same
    /// sweep the background scrubber performs on its period).
    pub fn scrub_now(&self) -> ScrubSummary {
        crate::scrub::scrub_pass(&self.registry, &self.stats)
    }

    /// Engine-wide stats plus per-lane detail as a JSON document (the
    /// body of `GET /stats`). The in-process path has no connection
    /// tier, so it reports `"connections":null`.
    pub fn stats_json(&self) -> String {
        self.stats_json_with(None)
    }

    /// [`Engine::stats_json`] with the reactor's connection-tier gauges
    /// spliced in as the `"connections"` object. Each variant's
    /// `warmed_codebooks` is read off its live snapshot.
    pub fn stats_json_with(&self, connections: Option<&str>) -> String {
        self.load(); // refresh the queue_depth / in_flight gauges
        let mut lanes = String::new();
        for (i, id) in self.registry.ids().iter().enumerate() {
            if i > 0 {
                lanes.push(',');
            }
            let depth = self.queue_depth(id).unwrap_or(0);
            match self.registry.get(id) {
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
                    lanes.push_str(&format!(
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
                None => lanes.push_str(&format!("{{\"id\":\"{id}\",\"queue_depth\":{depth}}}")),
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
            self.stats.snapshot().json_fields(),
            self.cfg.max_batch,
            self.cfg.queue_cap,
            self.cfg
                .compute_slots
                .map_or("null".to_string(), |n| n.to_string()),
            connections.unwrap_or("null"),
            store,
            lanes,
        )
    }

    /// Stop admitting, drain every lane, and join the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(mut scrubber) = self.scrubber.lock().expect("scrubber poisoned").take() {
            scrubber.stop();
        }
        let lanes: Vec<Arc<Lane>> = self
            .lanes
            .read()
            .expect("lanes poisoned")
            .values()
            .map(Arc::clone)
            .collect();
        for lane in &lanes {
            lane.queue.close();
        }
        for lane in &lanes {
            if let Some(worker) = lane.worker.lock().expect("lane poisoned").take() {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One lane's worker loop: take what is queued once a slot is free,
/// drop the dead, evaluate the rest as a single pass, fan rows back out.
fn run_lane(
    id: &str,
    lane: &Lane,
    registry: &ModelRegistry,
    stats: &ServeStats,
    slots: &Option<Arc<Slots>>,
    fault: &RwLock<Option<InjectedFault>>,
    cfg: EngineConfig,
) {
    // Worker-lifetime buffers: the flat input rows and the model's
    // ping-pong scratch grow to the steady-state batch size once, after
    // which the evaluate pass performs no heap allocation (the variant's
    // frozen plans quantize in place and each matmul writes into
    // scratch).
    let mut flat: Vec<f32> = Vec::new();
    let mut scratch = BatchScratch::new();
    while lane.queue.wait_ready() {
        // A compute slot covers the whole pass (an injected delay
        // included) and is taken before the queue is drained, so
        // requests that arrive while the lane waits for it join the batch.
        let _slot = slots.as_ref().map(Slots::acquire);
        let Some(batch) = lane.queue.pop_batch(cfg.max_batch) else {
            break;
        };
        let fault = *fault.read().expect("fault slot poisoned");
        if let Some(delay) = fault.map(|f| f.delay).filter(|d| !d.is_zero()) {
            std::thread::sleep(delay);
        }
        let snapshot = registry.get(id);
        let now = Instant::now();
        let mut live: Vec<Job> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.deadline < now {
                stats.on_expired();
                job.answer(Err(ServeError::DeadlineExceeded));
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        let Some(variant) = snapshot else {
            stats.on_failed(live.len() as u64);
            for job in live {
                job.answer(Err(ServeError::UnknownModel(id.to_string())));
            }
            continue;
        };
        // A hot swap may have changed the input width between admission
        // and evaluation; answer mismatches instead of panicking.
        let in_dim = variant.model.in_dim();
        let mut rows: Vec<Job> = Vec::with_capacity(live.len());
        for job in live {
            if job.input.len() == in_dim {
                rows.push(job);
            } else {
                let got = job.input.len();
                stats.on_failed(1);
                job.answer(Err(ServeError::BadInput {
                    expected: in_dim,
                    got,
                }));
            }
        }
        if rows.is_empty() {
            continue;
        }
        // The gauge covers the pass from here, so a supervisor catching
        // a panic below knows how many requests the unwind failed.
        lane.evaluating.store(rows.len() as u64, Ordering::Relaxed);
        // Injected worker fault: panic after the batch is formed, so the
        // in-flight jobs drop on unwind exactly as a real evaluation
        // fault would leave them.
        if let Some(trigger) = fault.and_then(|f| f.panic_on) {
            if rows.iter().any(|j| {
                j.input
                    .first()
                    .is_some_and(|v| v.to_bits() == trigger.to_bits())
            }) {
                panic!("injected worker fault in lane {id}");
            }
        }
        stats.on_batch(rows.len());
        flat.clear();
        for job in &rows {
            flat.extend_from_slice(&job.input);
        }
        let outputs = variant
            .model
            .evaluate_batch_into(&flat, rows.len(), &mut scratch);
        // Clear the gauge before replying: the channel send/recv pair
        // synchronizes, so a caller that has its answer never observes
        // the batch that produced it as still in flight.
        lane.evaluating.store(0, Ordering::Relaxed);
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
    fn shutdown_refuses_new_work() {
        let engine = Engine::start(registry(), EngineConfig::default());
        engine.shutdown();
        let x = FrozenMlp::synth_inputs(1, 1, 12);
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
        // The supervisor restarted the worker: the same lane still serves.
        let x = FrozenMlp::synth_inputs(7, 1, 12);
        let direct = reg.get("resnet/fp32").unwrap().model.evaluate(x.row(0));
        let got = engine.infer("resnet/fp32", x.row(0).to_vec()).unwrap();
        assert_eq!(got, direct);
        assert!(engine.stats().snapshot().worker_restarts >= 1);
        // The structural in-flight gauge was reset by the supervisor,
        // and the lost batch counts as failed.
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
    fn lanes_can_be_added_and_removed_at_runtime() {
        let reg = registry();
        let engine = Engine::start(Arc::clone(&reg), EngineConfig::default());
        // A variant registered after start has no lane until ensured.
        reg.register(&VariantSpec::fp32(
            "late/fp32",
            ModelFamily::ResNet,
            9,
            &[12, 24, 6],
        ))
        .unwrap();
        let x = FrozenMlp::synth_inputs(5, 1, 12);
        assert!(matches!(
            engine.infer("late/fp32", x.row(0).to_vec()),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(engine.ensure_lane("late/fp32"));
        assert!(!engine.ensure_lane("late/fp32"), "idempotent");
        let direct = reg.get("late/fp32").unwrap().model.evaluate(x.row(0));
        assert_eq!(
            engine.infer("late/fp32", x.row(0).to_vec()).unwrap(),
            direct
        );
        // Eviction: the lane drains and future requests see 404.
        assert!(engine.remove_lane("late/fp32"));
        assert!(!engine.remove_lane("late/fp32"));
        assert!(matches!(
            engine.infer("late/fp32", x.row(0).to_vec()),
            Err(ServeError::UnknownModel(_))
        ));
        // The original lanes are untouched.
        let direct = reg.get("resnet/fp32").unwrap().model.evaluate(x.row(0));
        assert_eq!(
            engine.infer("resnet/fp32", x.row(0).to_vec()).unwrap(),
            direct
        );
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
        // The worker's send fails without panicking; the lane survives.
        std::thread::sleep(Duration::from_millis(30));
        let direct = reg.get("resnet/fp32").unwrap().model.evaluate(x.row(0));
        assert_eq!(
            engine.infer("resnet/fp32", x.row(0).to_vec()).unwrap(),
            direct
        );
    }

    #[test]
    fn compute_slots_serialize_evaluate_passes() {
        // Two lanes, one slot, a measurable per-batch service delay:
        // concurrent requests to different lanes must run their passes
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
        // One slot, held by a slow pass on another lane: requests that
        // trickle in meanwhile must leave in ⌈N/max_batch⌉ passes,
        // because a lane drains its queue only once it holds the slot
        // (popping first would fix a batch of one before the wait).
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
        // The lane pops its request only after taking the slot, so an
        // empty queue here means the slow pass now holds it.
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
}
