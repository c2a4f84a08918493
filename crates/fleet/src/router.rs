//! The fleet router: consistent-hash placement, backpressure-aware
//! replica selection, deterministic hedged requests, failure detection
//! with circuit breakers, and fleet-wide operations over a set of
//! [`Shard`]s.
//!
//! **Placement.** Every model id owns an R-way replica set on the
//! [`HashRing`] (primary first). Membership changes
//! ([`FleetRouter::join`] / [`FleetRouter::leave`]) re-place only the
//! models the ring actually moved — minimal movement is the ring's
//! invariant, [`FleetRouter::reconcile`] just makes reality match it.
//!
//! **Selection.** For each request the live replicas are ordered by
//! their instantaneous load signal (`queue_depth + in_flight`, a
//! structural read — see `af_serve::stats`), stable so ring order
//! breaks ties: an idle fleet always picks the ring primary, a
//! saturated shard drops to the back *before* its bounded queue starts
//! shedding 429s. Admission failures and other transient shard errors
//! fail over to the next replica immediately.
//!
//! **Failure detection.** Every routed outcome feeds the per-shard
//! [`HealthRegistry`] (`crate::health`): EWMA latency, a decaying
//! error-accrual score, and a deterministic circuit breaker. Open
//! circuits are excluded from replica selection *and* hedge targets;
//! when every live replica of a model sits behind an open circuit the
//! router **degrades gracefully** — it serves from any healthy live
//! shard still holding the variant even off-ring, and only when none
//! exists answers [`ServeError::Unavailable`] whose `Retry-After`
//! derives from the earliest breaker half-open ETA. A quarantined
//! shard re-enters through [`FleetRouter::revive`]: WAL warm-start,
//! then a **bit-identity probe** against a surviving replica before
//! its circuit force-closes.
//!
//! **Hedging.** The first attempt gets a deterministic latency budget —
//! the configured budget jittered into `[0.5, 1.0)` of itself by
//! [`SplitMix64`] keyed on the request sequence number, the same
//! jittered-backoff idiom as `af_serve::client::RetryPolicy` — after
//! which one hedge attempt launches on the next-best replica. Both
//! attempts answer into one tagged reply channel ([`Engine::enqueue`]'s
//! contract); the first success wins and the loser's eventual reply is
//! discarded. Sequential request streams therefore hedge
//! **reproducibly**: same seed, same sequence, same decisions.
//!
//! **One state machine, two drivers.** All of the above is one
//! per-request state machine (`Routing`): `start` launches the first
//! attempt, `on_reply` and `on_timer` advance it, and each step answers
//! the request or names the instant to wait until. Breaker admission
//! and outcomes, failover, hedging, degradation and every
//! [`FleetStats`] counter happen inside those steps.
//! [`FleetRouter::infer_deadline`] drives it in-process with a private
//! channel and precise `recv_timeout`s (the chaos harness and tests
//! rely on that path's determinism); the HTTP front end
//! ([`crate::server`]) drives the same machine from its reactor's
//! reply channel and timer wheel, with no routing threads.
//!
//! **Warm-start.** Shards recover their own identity from their own
//! store ([`Shard::open`]); the router only reconciles placement drift
//! afterwards. A killed replica ([`FleetRouter::kill`], a crash — no
//! checkpoint, no goodbye) stays a ring member, so its keys fail over
//! to the surviving replicas until [`FleetRouter::revive`] warm-starts
//! it from its WAL, bit-identical.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

use af_resilience::SplitMix64;
use af_serve::batcher::TaggedReply;
use af_serve::sys::Waker;
use af_serve::{
    BuiltVariant, Engine, ModelRegistry, Progress, ScrubSummary, ServeError, VariantSpec,
};
use af_store::{ContainerBody, StoreError};

use crate::health::{Admission, BreakerState, HealthPolicy, HealthRegistry, Transition};
use crate::lock;
use crate::ring::{HashRing, VNODES_PER_SHARD};
use crate::shard::{Shard, ShardConfig};

/// Hash domain for hedge-budget jitter (disjoint from the retry
/// client's `0x5E77_1E5B` and the ring's domains).
const DOMAIN_HEDGE: u64 = 0x4ED6_E0FF;

/// Hash domain for the revive bit-identity probe's synthetic input.
const DOMAIN_PROBE: u64 = 0x0B17_1DE4;

/// Ring hash seed: every router computes identical placement.
const RING_SEED: u64 = 0xF1EE_75EE;

/// When to launch a hedge attempt.
#[derive(Debug, Clone, Copy)]
pub struct HedgePolicy {
    /// Base latency budget granted to the leading attempt before a
    /// hedge launches. [`Duration::ZERO`] disables hedging.
    pub budget: Duration,
    /// Seed for the per-request budget jitter.
    pub jitter_seed: u64,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            budget: Duration::from_millis(50),
            jitter_seed: 0xFEE7_0001,
        }
    }
}

impl HedgePolicy {
    /// The jittered budget for request `seq`: `budget × [0.5, 1.0)`,
    /// deterministic in `(jitter_seed, seq)`. Jitter decorrelates
    /// hedges across a burst — without it, a straggling shard receives
    /// every burst's hedges in one synchronized wave.
    pub fn budget_for(&self, seq: u64) -> Duration {
        let mut rng = SplitMix64::for_element(self.jitter_seed, DOMAIN_HEDGE, seq);
        self.budget.mul_f64(0.5 + 0.5 * rng.next_f64())
    }

    /// Whether hedging is enabled at all.
    pub fn enabled(&self) -> bool {
        self.budget > Duration::ZERO
    }
}

/// Fleet-wide policy.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Replicas per model (R). Each model id is served by `replicas`
    /// distinct shards when membership allows.
    pub replicas: usize,
    /// Hedge policy for the request path.
    pub hedge: HedgePolicy,
    /// Failure-detection and circuit-breaker policy.
    pub health: HealthPolicy,
    /// Deadline for [`FleetRouter::infer`].
    pub default_deadline: Duration,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            replicas: 2,
            hedge: HedgePolicy::default(),
            health: HealthPolicy::default(),
            default_deadline: Duration::from_secs(2),
        }
    }
}

/// Router counters (relaxed atomics, same discipline as
/// `af_serve::ServeStats`).
#[derive(Debug, Default)]
pub struct FleetStats {
    requests: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    failovers: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_half_opens: AtomicU64,
    breaker_closes: AtomicU64,
    breaker_rejections: AtomicU64,
    degraded: AtomicU64,
    unavailable: AtomicU64,
}

impl FleetStats {
    /// Read every counter.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_half_opens: self.breaker_half_opens.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
        }
    }

    fn on_transitions(&self, transitions: &[Transition]) {
        for t in transitions {
            let counter = match t {
                Transition::Opened => &self.breaker_opens,
                Transition::HalfOpened => &self.breaker_half_opens,
                Transition::Closed => &self.breaker_closes,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of the router counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetSnapshot {
    /// Requests entering the router.
    pub requests: u64,
    /// Requests answered successfully (by any attempt).
    pub completed: u64,
    /// Requests that exhausted every replica or their deadline.
    pub failed: u64,
    /// Hedge attempts launched after the latency budget.
    pub hedges: u64,
    /// Requests won by a hedge attempt.
    pub hedge_wins: u64,
    /// Immediate failovers on transient shard errors.
    pub failovers: u64,
    /// Circuit-breaker trips (Closed/Half-open → Open).
    pub breaker_opens: u64,
    /// Breakers that started probing (Open → Half-open).
    pub breaker_half_opens: u64,
    /// Breakers that recovered (→ Closed).
    pub breaker_closes: u64,
    /// Attempts skipped because a circuit was open.
    pub breaker_rejections: u64,
    /// Requests served off-ring because every replica was quarantined.
    pub degraded: u64,
    /// Requests answered `Unavailable` (no healthy holder anywhere).
    pub unavailable: u64,
}

impl FleetSnapshot {
    /// Render as a JSON object fragment (no surrounding braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"requests\":{},\"completed\":{},\"failed\":{},\"hedges\":{},\
             \"hedge_wins\":{},\"failovers\":{},\"breaker_opens\":{},\
             \"breaker_half_opens\":{},\"breaker_closes\":{},\
             \"breaker_rejections\":{},\"degraded\":{},\"unavailable\":{}",
            self.requests,
            self.completed,
            self.failed,
            self.hedges,
            self.hedge_wins,
            self.failovers,
            self.breaker_opens,
            self.breaker_half_opens,
            self.breaker_closes,
            self.breaker_rejections,
            self.degraded,
            self.unavailable,
        )
    }
}

/// The routing tier over N in-process shards.
#[derive(Debug)]
pub struct FleetRouter {
    root: PathBuf,
    cfg: FleetConfig,
    ring: RwLock<HashRing>,
    shards: RwLock<BTreeMap<usize, Arc<Shard>>>,
    /// Authoritative model catalog: what should be placed, regardless
    /// of which shards are alive right now.
    specs: RwLock<BTreeMap<String, VariantSpec>>,
    stats: FleetStats,
    health: HealthRegistry,
    seq: AtomicU64,
}

impl FleetRouter {
    /// An empty fleet rooted at `root` (each joined shard stores under
    /// `root/shard-NNN/`).
    pub fn new(root: &Path, cfg: FleetConfig) -> FleetRouter {
        assert!(cfg.replicas >= 1, "a model needs at least one replica");
        FleetRouter {
            root: root.to_path_buf(),
            cfg,
            ring: RwLock::new(HashRing::with_seed(RING_SEED)),
            shards: RwLock::new(BTreeMap::new()),
            specs: RwLock::new(BTreeMap::new()),
            stats: FleetStats::default(),
            health: HealthRegistry::new(cfg.health),
            seq: AtomicU64::new(0),
        }
    }

    /// The fleet policy.
    pub fn config(&self) -> FleetConfig {
        self.cfg
    }

    /// The router counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The per-shard health table and circuit breakers.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// The fleet's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Live shard handle by index.
    pub fn shard(&self, index: usize) -> Option<Arc<Shard>> {
        lock::read(&self.shards).get(&index).cloned()
    }

    /// Indexes of live shards, ascending.
    pub fn live_shards(&self) -> Vec<usize> {
        lock::read(&self.shards).keys().copied().collect()
    }

    /// Ring members, ascending (includes killed-but-not-left shards).
    pub fn ring_members(&self) -> Vec<usize> {
        lock::read(&self.ring).shards().to_vec()
    }

    /// The R-way replica set the ring assigns to `model` (primary
    /// first), independent of liveness.
    pub fn placement(&self, model: &str) -> Vec<usize> {
        lock::read(&self.ring).replicas(model, self.cfg.replicas)
    }

    /// Join shard `index` to the fleet: warm-start it from its own
    /// store directory, add it to the ring (if absent), and reconcile
    /// placement — only models the ring moved onto the new shard are
    /// (re)placed, everything else stays where it was.
    ///
    /// # Errors
    ///
    /// [`StoreError`] from the shard's warm-start.
    pub fn join(&self, index: usize, cfg: ShardConfig) -> Result<Arc<Shard>, StoreError> {
        let shard = Arc::new(Shard::open(index, &self.root, cfg)?);
        lock::write(&self.shards).insert(index, Arc::clone(&shard));
        lock::write(&self.ring).add_shard(index);
        self.reconcile();
        Ok(shard)
    }

    /// Warm-start a previously [`kill`](Self::kill)ed shard from its
    /// checkpoint + WAL, then put it back in rotation **only after it
    /// proves itself**: every model it recovered is probed with a
    /// deterministic synthetic input and the output compared
    /// bit-for-bit against a surviving live replica (vacuously passing
    /// when no other holder is alive). A clean sweep force-closes the
    /// shard's circuit breaker; any mismatch leaves the breaker as it
    /// was, so the shard re-earns traffic through the normal half-open
    /// probe path instead.
    ///
    /// The shard never left the ring, so its keys flow straight back;
    /// reconciliation fixes any placement drift that happened while it
    /// was down (models swapped, registered, or unregistered
    /// fleet-wide).
    ///
    /// # Errors
    ///
    /// [`StoreError`] from the warm-start replay.
    pub fn revive(&self, index: usize, cfg: ShardConfig) -> Result<Arc<Shard>, StoreError> {
        let shard = self.join(index, cfg)?;
        let ok = self.bit_identity_probe(&shard);
        self.record_transitions(self.health.record_probe(index, ok));
        if ok {
            self.record_transitions(self.health.force_close(index));
        }
        Ok(shard)
    }

    /// Probe every model on `shard` with a deterministic input and
    /// compare bit-for-bit against any other live holder. `true` when
    /// every comparison matched (vacuously, when nothing was
    /// comparable).
    fn bit_identity_probe(&self, shard: &Arc<Shard>) -> bool {
        for id in shard.ids() {
            let Some(spec) = lock::read(&self.specs).get(&id).cloned() else {
                continue;
            };
            let input = probe_input(&spec);
            let Ok(mine) = shard.engine().infer(&id, input.clone()) else {
                return false;
            };
            let witness = lock::read(&self.shards)
                .values()
                .find(|other| {
                    other.index() != shard.index()
                        && other.engine().registry().get(&id).is_some()
                        && self.health.state(other.index()) == BreakerState::Closed
                })
                .cloned();
            if let Some(witness) = witness {
                let Ok(theirs) = witness.engine().infer(&id, input) else {
                    continue; // the witness faulted, not the revived shard
                };
                let same = mine.len() == theirs.len()
                    && mine
                        .iter()
                        .zip(&theirs)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return false;
                }
            }
        }
        true
    }

    /// Orderly departure: take `index` off the ring, re-place the
    /// models that lived on it onto their new replica sets, evict its
    /// models (journaled), and shut it down. Returns whether the shard
    /// was a ring member.
    pub fn leave(&self, index: usize) -> bool {
        if !lock::write(&self.ring).remove_shard(index) {
            return false;
        }
        let departed = lock::write(&self.shards).remove(&index);
        self.reconcile();
        if let Some(shard) = departed {
            for id in shard.ids() {
                shard.evict(&id);
            }
            shard.shutdown();
        }
        true
    }

    /// Simulate a crash: drop the shard handle with **no** checkpoint
    /// and no ring change. In-flight work drains through the engine's
    /// drop, new requests fail over to surviving replicas, and the
    /// shard's durable identity (checkpoint + WAL) stays on disk for
    /// [`revive`](Self::revive). Returns whether the shard was live.
    pub fn kill(&self, index: usize) -> bool {
        lock::write(&self.shards).remove(&index).is_some()
    }

    /// Register (or hot-swap) a model fleet-wide: build it once, record
    /// it in the catalog and place a clone on every live shard of its
    /// replica set. An unprotected build is also exported and encoded
    /// once: every replica's store writes the same container body.
    /// Returns the ring placement (primary first). Dead or future
    /// members pick the model up at [`revive`](Self::revive)/
    /// [`join`](Self::join) reconciliation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the spec's format cannot be built
    /// (nothing is placed and the catalog is left unchanged).
    pub fn register_model(&self, spec: &VariantSpec) -> Result<Vec<usize>, ServeError> {
        let built = ModelRegistry::build(spec).map_err(|_| ServeError::Internal)?;
        let body = built.container_body();
        let placement = self.placement(&spec.id);
        let shards = lock::read(&self.shards);
        for index in &placement {
            if let Some(shard) = shards.get(index) {
                shard.place(&built, body.as_ref());
            }
        }
        drop(shards);
        lock::write(&self.specs).insert(spec.id.clone(), spec.clone());
        Ok(placement)
    }

    /// Remove a model fleet-wide: evict it from every live shard
    /// (journaled per shard) and drop it from the catalog. Returns
    /// whether the catalog knew it.
    pub fn unregister_model(&self, id: &str) -> bool {
        let shards = lock::read(&self.shards);
        for shard in shards.values() {
            shard.evict(id);
        }
        drop(shards);
        lock::write(&self.specs).remove(id).is_some()
    }

    /// Model ids in the catalog, ascending.
    pub fn model_ids(&self) -> Vec<String> {
        lock::read(&self.specs).keys().cloned().collect()
    }

    /// Scrub every protected variant on every live shard, summed.
    pub fn scrub_all(&self) -> ScrubSummary {
        let shards = lock::read(&self.shards);
        let mut total = ScrubSummary::default();
        for shard in shards.values() {
            let s = shard.engine().scrub_now();
            total.variants += s.variants;
            total.corrected += s.corrected;
            total.uncorrectable += s.uncorrectable;
            total.rebuilds += s.rebuilds;
            total.elapsed_us += s.elapsed_us;
        }
        total
    }

    /// Per-shard generation counters for a model, `(shard, generation)`
    /// over the live members that carry it. Generations are per-shard
    /// (each shard counts its own swaps and rebuilds).
    pub fn generations(&self, id: &str) -> Vec<(usize, u64)> {
        let shards = lock::read(&self.shards);
        shards
            .iter()
            .filter_map(|(&index, shard)| {
                shard
                    .engine()
                    .registry()
                    .get(id)
                    .map(|v| (index, v.generation))
            })
            .collect()
    }

    /// Make every live shard's contents match the catalog × ring
    /// placement: place what is missing, evict what no longer belongs,
    /// and re-place entries whose catalog spec changed while the shard
    /// was away. Idempotent; called from every membership change.
    pub fn reconcile(&self) {
        let specs: Vec<VariantSpec> = lock::read(&self.specs).values().cloned().collect();
        let shards: Vec<Arc<Shard>> = lock::read(&self.shards).values().cloned().collect();
        for spec in &specs {
            let placement = self.placement(&spec.id);
            // Built (and its body encoded) on first need, then placed
            // on every shard missing it.
            let mut built = None;
            for shard in &shards {
                let should = placement.contains(&shard.index());
                let current = shard.engine().registry().get(&spec.id);
                match (should, current) {
                    // Missing, or the catalog moved on while this shard
                    // was away — (re)place it up to date.
                    (true, None) => place_built(shard, spec, &mut built),
                    (true, Some(v)) if v.spec != *spec => place_built(shard, spec, &mut built),
                    (false, Some(_)) => {
                        shard.evict(&spec.id);
                    }
                    _ => {}
                }
            }
        }
        // Models a shard recovered that the catalog no longer knows.
        let known: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
        for shard in &shards {
            for id in shard.ids() {
                if !known.contains(&id) {
                    shard.evict(&id);
                }
            }
        }
    }

    /// Live replicas for `model`, best-first: ordered by instantaneous
    /// load (stable, so ring order — primary first — breaks ties). The
    /// load read refreshes each shard's gauges as a side effect.
    /// Breaker state is **not** consulted here — the request path does
    /// that itself so rejections are counted exactly once per attempt.
    pub fn selection(&self, model: &str) -> Vec<Arc<Shard>> {
        let placement = self.placement(model);
        let shards = lock::read(&self.shards);
        let mut out: Vec<(u64, Arc<Shard>)> = placement
            .iter()
            .filter_map(|i| shards.get(i).map(|s| (s.load(), Arc::clone(s))))
            .collect();
        drop(shards);
        out.sort_by_key(|&(load, _)| load);
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Probe every ring member in-process (the `healthz`/stats analogue
    /// for embedded shards): a live member's structural gauges count as
    /// a probe success **only while its breaker is closed** (so a
    /// liveness tick can never close a quarantined shard behind the
    /// bit-identity probe's back); a ring member with no live shard
    /// records a probe failure and accrues toward its breaker. Returns
    /// `(member, probe_ok)` per ring member, ascending.
    pub fn probe_health(&self) -> Vec<(usize, bool)> {
        let members = self.ring_members();
        let mut out = Vec::with_capacity(members.len());
        for index in members {
            let live = self.shard(index);
            let ok = match live {
                Some(shard) => {
                    let _ = shard.load(); // refresh gauges; structural, cannot fail
                    true
                }
                None => false,
            };
            if ok {
                if self.health.state(index) == BreakerState::Closed {
                    self.record_transitions(self.health.record_probe(index, true));
                }
            } else {
                self.record_transitions(self.health.record_probe(index, false));
            }
            out.push((index, ok));
        }
        out
    }

    fn record_transitions(&self, transitions: Vec<Transition>) {
        self.stats.on_transitions(&transitions);
    }

    /// Route one request under the fleet's default deadline.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see [`infer_deadline`](Self::infer_deadline).
    pub fn infer(&self, model: &str, input: Vec<f32>) -> Result<Vec<f32>, ServeError> {
        self.infer_deadline(model, input, self.cfg.default_deadline)
    }

    /// Route one request: try the best healthy replica, hedge to the
    /// next after the jittered latency budget, fail over immediately on
    /// transient shard errors, first success wins. Every outcome feeds
    /// the health registry.
    ///
    /// The in-process driver of the routing state machine (`Routing`):
    /// attempts answer on a private channel and the machine's wake-up
    /// instants become precise `recv_timeout`s. The losing attempt's
    /// reply is discarded when the channel drops.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if no live replica serves `model`;
    /// [`ServeError::BadInput`] immediately (no failover — the request
    /// itself is wrong); [`ServeError::DeadlineExceeded`] if `deadline`
    /// expires; [`ServeError::Unavailable`] when every holder fleet-wide
    /// is quarantined; otherwise the last shard error once every
    /// replica has been tried.
    pub fn infer_deadline(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<Vec<f32>, ServeError> {
        let (reply, replies) = mpsc::channel();
        let sink = ReplySink {
            reply,
            waker: None,
            tag: 0,
        };
        let (mut routing, mut wake_at) = Routing::start(self, model, input, deadline, sink)?;
        loop {
            // The routing holds a sender, so `recv` only ever returns a
            // reply and `recv_timeout` a reply or a timeout.
            let received = match wake_at {
                Some(at) => replies
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                    .ok(),
                None => replies.recv().ok(),
            };
            let progress = match received {
                Some((tag, result)) => routing.on_reply(self, tag, result),
                None => routing.on_timer(self, Instant::now()),
            };
            match progress {
                Progress::Done(result) => return result,
                Progress::Pending(next) => wake_at = next,
            }
        }
    }

    fn record_failure(&self, index: usize, e: &ServeError) {
        let counted = HealthPolicy::counts_toward_breaker(e);
        self.record_transitions(self.health.record_failure(index, counted));
    }

    /// Fleet stats as a JSON document: router counters, ring shape, and
    /// a per-shard section (index, load, models, health, engine
    /// counters). `"connections"` is `null` — the HTTP front end
    /// splices its connection-tier gauges via
    /// [`stats_json_with`](Self::stats_json_with).
    pub fn stats_json(&self) -> String {
        self.stats_json_with(None)
    }

    /// [`stats_json`](Self::stats_json) with the serving tier's
    /// connection gauges spliced in as the `"connections"` object
    /// (`null` when absent, e.g. on the in-process path).
    pub fn stats_json_with(&self, connections: Option<&str>) -> String {
        let shards = lock::read(&self.shards);
        let mut per_shard = String::new();
        for (i, (&index, shard)) in shards.iter().enumerate() {
            if i > 0 {
                per_shard.push(',');
            }
            let load = shard.load();
            let snap = shard.engine().stats().snapshot();
            per_shard.push_str(&format!(
                "{{\"shard\":{},\"load\":{},\"models\":{},\"health\":{},{}}}",
                index,
                load,
                shard.ids().len(),
                self.health.snapshot(index).json_object(),
                snap.json_fields(),
            ));
        }
        let live: Vec<String> = shards.keys().map(|k| k.to_string()).collect();
        drop(shards);
        let members: Vec<String> = self.ring_members().iter().map(|m| m.to_string()).collect();
        format!(
            "{{{},\"replicas\":{},\"vnodes_per_shard\":{},\"hedge_budget_us\":{},\
             \"ring_members\":[{}],\"live_shards\":[{}],\"connections\":{},\"models\":{},\
             \"shards\":[{}]}}\n",
            self.stats.snapshot().json_fields(),
            self.cfg.replicas,
            VNODES_PER_SHARD,
            self.cfg.hedge.budget.as_micros(),
            members.join(","),
            live.join(","),
            connections.unwrap_or("null"),
            lock::read(&self.specs).len(),
            per_shard,
        )
    }

    /// Orderly fleet shutdown: drain and join every live shard.
    pub fn shutdown(&self) {
        let shards: Vec<Arc<Shard>> = lock::write(&self.shards).values().cloned().collect();
        for shard in shards {
            shard.shutdown();
        }
    }
}

/// Where one routing's shard attempts answer: attempt `k` replies on
/// `reply` as `(tag + k, result)`, then rings `waker` when an event loop
/// drives the routing.
#[derive(Debug)]
pub(crate) struct ReplySink {
    pub(crate) reply: mpsc::Sender<TaggedReply>,
    pub(crate) waker: Option<Arc<Waker>>,
    pub(crate) tag: u64,
}

impl ReplySink {
    fn enqueue(
        &self,
        engine: &Engine,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        attempt: usize,
    ) -> Result<(), ServeError> {
        let tag = self.tag + attempt as u64;
        match &self.waker {
            Some(waker) => engine.enqueue_waking(model, input, deadline, tag, &self.reply, waker),
            None => engine.enqueue(model, input, deadline, tag, &self.reply),
        }
    }
}

/// One request's routing as a state machine: the single implementation
/// of selection, breaker admission, failover, hedging and degradation,
/// driven either in-process ([`FleetRouter::infer_deadline`]) or by the
/// HTTP front end's reactor (`crate::server`).
///
/// Three steps — [`start`](Routing::start), [`on_reply`](Routing::on_reply)
/// and [`on_timer`](Routing::on_timer) — each return the answer or the
/// instant to wait until (`None`: until the next reply). Breaker
/// admission and outcomes, and every [`FleetStats`] counter, update
/// inside the steps; a request counts as completed or failed exactly
/// once, when its answer is returned (or when its caller
/// [`abandon`](Routing::abandon)s it).
#[derive(Debug)]
pub(crate) struct Routing {
    model: String,
    input: Vec<f32>,
    sink: ReplySink,
    deadline: Duration,
    /// When `deadline` expires.
    overall: Instant,
    /// Replicas to try, best first — in the degraded phase, every live
    /// holder of the model.
    candidates: Vec<Arc<Shard>>,
    /// Next candidate to try.
    next: usize,
    outstanding: usize,
    /// Which shard each launched attempt (by index) went to, and when,
    /// so replies feed the right health record with real latency.
    attempts: Vec<(usize, Instant)>,
    /// Candidates that passed their breaker.
    admitted: usize,
    last_err: Option<ServeError>,
    /// When the hedge launches; cleared once it has.
    hedge_at: Option<Instant>,
    /// Attempt the hedge actually launched as, if any — failover
    /// launches also consume attempt indexes, so `attempt > 0` alone
    /// cannot tell a hedge win from a failover win.
    hedge_attempt: Option<usize>,
    /// Set once every on-ring replica turned out quarantined: the
    /// instant degraded serving admits holders at.
    degraded: Option<Instant>,
}

/// A step's outcome before the request counters see it: the failure
/// that answers the request, or the instant to wait until.
type Step = Result<Option<Instant>, ServeError>;

impl Routing {
    /// Begin routing one request: select replicas and launch the first
    /// attempt (degrading off-ring when every replica is quarantined).
    ///
    /// # Errors
    ///
    /// The request's answer when it fails before anything is pending.
    pub(crate) fn start(
        router: &FleetRouter,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
        sink: ReplySink,
    ) -> Result<(Routing, Option<Instant>), ServeError> {
        let seq = router.seq.fetch_add(1, Ordering::Relaxed);
        router.stats.requests.fetch_add(1, Ordering::Relaxed);
        let candidates = router.selection(model);
        let start = Instant::now();
        let hedge = router.cfg.hedge;
        let mut routing = Routing {
            model: model.to_string(),
            input,
            sink,
            deadline,
            overall: start + deadline,
            candidates,
            next: 0,
            outstanding: 0,
            attempts: Vec::new(),
            admitted: 0,
            last_err: None,
            hedge_at: hedge.enabled().then(|| start + hedge.budget_for(seq)),
            hedge_attempt: None,
            degraded: None,
        };
        match routing.first_launch(router) {
            Ok(wake_at) => Ok((routing, wake_at)),
            Err(e) => {
                router.stats.failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn first_launch(&mut self, router: &FleetRouter) -> Step {
        if self.candidates.is_empty() {
            return Err(ServeError::UnknownModel(self.model.clone()));
        }
        if let Some(e) = self.launch(router) {
            if self.admitted == 0 && self.last_err.is_none() {
                // Every live replica is quarantined (no breaker let a
                // single attempt through, and nothing else failed).
                return self.degrade(router);
            }
            return Err(e);
        }
        self.wait()
    }

    /// One attempt answered (`tag` as sent on the [`ReplySink`]).
    pub(crate) fn on_reply(
        &mut self,
        router: &FleetRouter,
        tag: u64,
        result: Result<Vec<f32>, ServeError>,
    ) -> Progress {
        let attempt = tag.wrapping_sub(self.sink.tag) as usize;
        let launched = self.attempts.get(attempt).copied();
        let step = match result {
            Ok(output) => {
                if let Some((index, at)) = launched {
                    router.record_transitions(router.health.record_success(index, at.elapsed()));
                }
                if self.hedge_attempt == Some(attempt) {
                    router.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                if self.degraded.is_some() {
                    router.stats.degraded.fetch_add(1, Ordering::Relaxed);
                }
                router.stats.completed.fetch_add(1, Ordering::Relaxed);
                return Progress::Done(Ok(output));
            }
            Err(e) => {
                if let Some((index, _)) = launched {
                    router.record_failure(index, &e);
                }
                self.failed_attempt(router, e)
            }
        };
        settle(router, step)
    }

    fn failed_attempt(&mut self, router: &FleetRouter, e: ServeError) -> Step {
        if !e.is_failover() {
            return Err(e);
        }
        self.last_err = Some(e);
        if self.degraded.is_some() {
            return self.launch_degraded(router);
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.next < self.candidates.len() {
            router.stats.failovers.fetch_add(1, Ordering::Relaxed);
            let _ = self.launch(router);
        }
        if self.outstanding == 0 {
            return Err(self.last_err.take().unwrap_or(ServeError::Internal));
        }
        self.wait()
    }

    /// The instant last returned has passed: launch the hedge when its
    /// budget ran out, answer `DeadlineExceeded` when the deadline did.
    pub(crate) fn on_timer(&mut self, router: &FleetRouter, now: Instant) -> Progress {
        let step = self.hedge(router, now).and_then(|()| self.wait());
        settle(router, step)
    }

    fn hedge(&mut self, router: &FleetRouter, now: Instant) -> Result<(), ServeError> {
        let due = self.hedge_at.is_some_and(|h| now >= h);
        if !due || self.next >= self.candidates.len() {
            return Ok(());
        }
        self.hedge_at = None;
        router.stats.hedges.fetch_add(1, Ordering::Relaxed);
        let before = self.attempts.len();
        let _ = self.launch(router);
        if self.attempts.len() > before {
            self.hedge_attempt = Some(before);
        }
        if self.outstanding == 0 {
            return Err(self.last_err.take().unwrap_or(ServeError::DeadlineExceeded));
        }
        Ok(())
    }

    /// The caller gave up on the request (its connection closed): it
    /// counts as failed, and its outstanding replies are dropped
    /// unread.
    pub(crate) fn abandon(self, router: &FleetRouter) {
        router.stats.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// What to wait for next: nothing once the deadline passed, else
    /// the pending hedge or the deadline. Degraded attempts wait for
    /// their reply alone, under the deadline each carries.
    fn wait(&mut self) -> Step {
        if self.degraded.is_some() {
            return Ok(None);
        }
        if Instant::now() >= self.overall {
            return Err(self.last_err.take().unwrap_or(ServeError::DeadlineExceeded));
        }
        Ok(Some(match self.hedge_at {
            Some(h) if self.next < self.candidates.len() => h.min(self.overall),
            _ => self.overall,
        }))
    }

    /// Launch one attempt on the next viable candidate. The breaker is
    /// consulted here, at launch time — never for a candidate the
    /// request doesn't actually reach — so a half-open shard's single
    /// probe token is only consumed by an attempt whose outcome will be
    /// recorded. Breaker rejections and admission-time shard errors
    /// fail over to the next candidate on the spot. Returns the error
    /// that ended the search when nothing launched.
    fn launch(&mut self, router: &FleetRouter) -> Option<ServeError> {
        while self.next < self.candidates.len() {
            let shard = &self.candidates[self.next];
            self.next += 1;
            let (admission, transitions) = router.health.admit(shard.index(), Instant::now());
            router.record_transitions(transitions);
            if let Admission::Reject { .. } = admission {
                router
                    .stats
                    .breaker_rejections
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.admitted += 1;
            let remaining = self.overall.saturating_duration_since(Instant::now());
            let attempt = self.attempts.len();
            let input = self.input.clone();
            match self
                .sink
                .enqueue(shard.engine(), &self.model, input, remaining, attempt)
            {
                Ok(()) => {
                    self.attempts.push((shard.index(), Instant::now()));
                    self.outstanding += 1;
                    return None;
                }
                Err(e) => {
                    router.record_failure(shard.index(), &e);
                    if e.is_failover() && self.next < self.candidates.len() {
                        router.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        self.last_err = Some(e);
                    } else {
                        return Some(e);
                    }
                }
            }
        }
        Some(self.last_err.clone().unwrap_or(ServeError::Internal))
    }

    /// Graceful degradation: every live on-ring replica is quarantined,
    /// so serve from **any** healthy live shard still holding the
    /// variant — even one the ring no longer assigns it to — one holder
    /// at a time, each attempt under the full deadline.
    fn degrade(&mut self, router: &FleetRouter) -> Step {
        self.degraded = Some(Instant::now());
        self.hedge_at = None;
        self.candidates = lock::read(&router.shards)
            .values()
            .filter(|s| s.engine().registry().get(&self.model).is_some())
            .cloned()
            .collect();
        self.next = 0;
        self.launch_degraded(router)
    }

    /// Admit the next healthy holder. When none is left, answer the
    /// last holder's error if one was tried, else
    /// [`ServeError::Unavailable`] carrying the earliest half-open
    /// probe ETA as its retry hint.
    fn launch_degraded(&mut self, router: &FleetRouter) -> Step {
        let now = self.degraded.unwrap_or_else(Instant::now);
        while self.next < self.candidates.len() {
            let shard = &self.candidates[self.next];
            self.next += 1;
            let (admission, transitions) = router.health.admit(shard.index(), now);
            router.record_transitions(transitions);
            if admission != Admission::Admit {
                continue;
            }
            let launched = Instant::now();
            let attempt = self.attempts.len();
            let input = self.input.clone();
            match self
                .sink
                .enqueue(shard.engine(), &self.model, input, self.deadline, attempt)
            {
                Ok(()) => {
                    self.attempts.push((shard.index(), launched));
                    return Ok(None);
                }
                Err(e) => {
                    router.record_failure(shard.index(), &e);
                    if !e.is_failover() {
                        return Err(e);
                    }
                    self.last_err = Some(e);
                }
            }
        }
        if let Some(e) = self.last_err.take() {
            return Err(e);
        }
        router.stats.unavailable.fetch_add(1, Ordering::Relaxed);
        let placement = router.placement(&self.model);
        Err(ServeError::Unavailable {
            retry_after_ms: router.health.half_open_eta_ms(&placement, Instant::now()),
        })
    }
}

/// Count a finished request and turn a step into [`Progress`].
fn settle(router: &FleetRouter, step: Step) -> Progress {
    match step {
        Ok(wake_at) => Progress::Pending(wake_at),
        Err(e) => {
            router.stats.failed.fetch_add(1, Ordering::Relaxed);
            Progress::Done(Err(e))
        }
    }
}

/// Reconciliation's placement: build `spec` and encode its container
/// body on first need (it was built when it entered the catalog, so a
/// failure here only skips the shard), then place the one build on
/// `shard`.
fn place_built(
    shard: &Shard,
    spec: &VariantSpec,
    built: &mut Option<(BuiltVariant, Option<ContainerBody>)>,
) {
    if built.is_none() {
        *built = ModelRegistry::build(spec).ok().map(|b| {
            let body = b.container_body();
            (b, body)
        });
    }
    if let Some((built, body)) = built {
        shard.place(built, body.as_ref());
    }
}

/// The deterministic synthetic input the revive bit-identity probe
/// evaluates: `dims[0]` values in `[-1, 1)` drawn from [`SplitMix64`]
/// keyed on `(RING_SEED, spec.seed)` — every router probes a given
/// model with identical bits.
fn probe_input(spec: &VariantSpec) -> Vec<f32> {
    let mut rng = SplitMix64::for_element(RING_SEED, DOMAIN_PROBE, spec.seed);
    (0..spec.dims[0])
        .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
        .collect()
}
