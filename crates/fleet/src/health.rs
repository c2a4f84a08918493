//! Per-shard health scoring and deterministic circuit breakers.
//!
//! Every routed request outcome and every in-process health probe
//! feeds one `ReplicaHealth` record per shard: an EWMA of observed
//! latency, a decaying error-accrual score, and a three-state circuit
//! breaker (Closed → Open → Half-open). The router consults
//! [`HealthRegistry::admit`] before every attempt — open circuits are
//! excluded from replica selection and hedge targets — and records
//! every outcome back, so a shard that keeps failing is isolated
//! *before* its queue ever sheds, and a recovered shard re-earns
//! traffic through a bounded probe instead of a thundering herd.
//!
//! **Determinism.** The breaker is a pure function of the outcome
//! sequence: it opens after exactly
//! [`HealthPolicy::failure_threshold`] consecutive counted failures,
//! half-opens on the first admission after a cooldown whose length is
//! `open_backoff · 2^(trips−1)` jittered into `[1.0, 1.5)` of itself
//! by [`SplitMix64`] keyed on `(PROBE_SEED, shard, trip)` — the same
//! splittable-counter idiom as hedge budgets and retry backoff — and
//! re-closes after `SUCCESS_THRESHOLD` (one) probe success. Two fleets
//! replaying the same outcome sequence therefore produce identical
//! transition sequences, which the chaos harness (`crate::chaos`)
//! asserts.
//!
//! Deadline expiries deliberately do **not** count toward the breaker:
//! a request that burned its budget on a *different* straggling
//! replica would otherwise open the healthy shard that merely received
//! the doomed failover. Slowness is tracked by the latency EWMA and
//! surfaced in the health score instead.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use af_resilience::SplitMix64;
use af_serve::ServeError;

use crate::lock;

/// Hash domain for the breaker's cooldown/probe jitter (disjoint from
/// the hedge domain `0x4ED6_E0FF` and the retry client's
/// `0x5E77_1E5B`).
const DOMAIN_BREAKER: u64 = 0xB4EA_C0DE;

/// Seed for the deterministic cooldown jitter stream.
const PROBE_SEED: u64 = 0xB4EA_0001;

/// Weight of a new latency sample in the EWMA.
const EWMA_ALPHA: f64 = 0.2;

/// Half-open probe successes required to close the breaker.
const SUCCESS_THRESHOLD: u32 = 1;

/// Failure-detection and circuit-breaker policy, fleet-wide.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive counted failures that trip the breaker open.
    /// `0` disables the breaker entirely (scores still accrue).
    pub failure_threshold: u32,
    /// Base quarantine after a trip; doubles per consecutive trip.
    pub open_backoff: Duration,
    /// Ceiling on the (pre-jitter) quarantine.
    pub max_backoff: Duration,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            failure_threshold: 5,
            open_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(8),
        }
    }
}

impl HealthPolicy {
    /// A policy whose breaker never trips — health scores still
    /// accrue, but no shard is ever excluded (the "breakers off" arm
    /// of the chaos availability sweep).
    pub fn disabled() -> HealthPolicy {
        HealthPolicy {
            failure_threshold: 0,
            ..HealthPolicy::default()
        }
    }

    /// Whether the breaker can trip at all.
    pub fn enabled(&self) -> bool {
        self.failure_threshold > 0
    }

    /// The quarantine after trip number `trip` (1-based) of `shard`:
    /// `min(max_backoff, open_backoff · 2^(trip−1))` scaled into
    /// `[1.0, 1.5)` by the deterministic jitter stream.
    pub fn cooldown(&self, shard: usize, trip: u64) -> Duration {
        let doubled = self.open_backoff.saturating_mul(
            1u32.checked_shl(u32::try_from(trip.saturating_sub(1)).unwrap_or(u32::MAX))
                .unwrap_or(u32::MAX),
        );
        let capped = doubled.min(self.max_backoff);
        let key = ((shard as u64) << 32) | (trip & 0xFFFF_FFFF);
        let mut rng = SplitMix64::for_element(PROBE_SEED, DOMAIN_BREAKER, key);
        capped.mul_f64(1.0 + 0.5 * rng.next_f64())
    }

    /// Whether `e` counts toward the breaker's failure accrual: shard
    /// faults (shed, shutdown, lost batch, missing placement) do;
    /// deadline expiries and client errors do not (see module docs).
    pub fn counts_toward_breaker(e: &ServeError) -> bool {
        matches!(
            e,
            ServeError::Overloaded
                | ServeError::ShuttingDown
                | ServeError::Internal
                | ServeError::UnknownModel(_)
        )
    }
}

/// Circuit-breaker state of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request admitted, failures accrue.
    Closed,
    /// Quarantined: requests rejected until the cooldown ETA.
    Open,
    /// Probing: one request at a time admitted; success closes,
    /// failure re-opens with a doubled cooldown.
    HalfOpen,
}

impl BreakerState {
    /// Lowercase label for stats documents.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One breaker state change, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Closed/Half-open → Open (failure threshold reached or probe
    /// failed).
    Opened,
    /// Open → Half-open (cooldown elapsed, probe admitted).
    HalfOpened,
    /// Half-open (or forced) → Closed.
    Closed,
}

impl Transition {
    /// Lowercase label for stats documents and chaos reports.
    pub fn label(&self) -> &'static str {
        match self {
            Transition::Opened => "opened",
            Transition::HalfOpened => "half_opened",
            Transition::Closed => "closed",
        }
    }
}

/// The verdict of [`HealthRegistry::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Route to this shard.
    Admit,
    /// Circuit open (or a probe already in flight): skip this shard.
    /// Carries the time until the next half-open probe is due.
    Reject {
        /// Remaining cooldown; zero when half-open with a probe
        /// already out.
        retry_after: Duration,
    },
}

/// Point-in-time health of one shard, for stats documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Breaker state.
    pub state: BreakerState,
    /// Decaying error-accrual score (0 = pristine).
    pub score: f64,
    /// EWMA of observed request latency, microseconds (0 until the
    /// first sample).
    pub ewma_latency_us: f64,
    /// Outcomes recorded as successes.
    pub successes: u64,
    /// Outcomes recorded as counted failures.
    pub failures: u64,
    /// Times this shard's breaker tripped open.
    pub trips: u64,
}

impl HealthSnapshot {
    /// Render as a JSON object.
    pub fn json_object(&self) -> String {
        format!(
            "{{\"state\":\"{}\",\"score\":{:.4},\"ewma_latency_us\":{:.1},\
             \"successes\":{},\"failures\":{},\"trips\":{}}}",
            self.state.label(),
            self.score,
            self.ewma_latency_us,
            self.successes,
            self.failures,
            self.trips,
        )
    }
}

/// Per-shard health record (interior state of the registry).
#[derive(Debug)]
struct ReplicaHealth {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    probe_in_flight: bool,
    trips: u64,
    open_until: Option<Instant>,
    ewma_latency_us: f64,
    score: f64,
    successes: u64,
    failures: u64,
}

impl ReplicaHealth {
    fn new() -> ReplicaHealth {
        ReplicaHealth {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            probe_in_flight: false,
            trips: 0,
            open_until: None,
            ewma_latency_us: 0.0,
            score: 0.0,
            successes: 0,
            failures: 0,
        }
    }

    fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            state: self.state,
            score: self.score,
            ewma_latency_us: self.ewma_latency_us,
            successes: self.successes,
            failures: self.failures,
            trips: self.trips,
        }
    }
}

/// The fleet's health table: one `ReplicaHealth` per shard index,
/// fed by the router, consulted before every attempt.
#[derive(Debug)]
pub struct HealthRegistry {
    policy: HealthPolicy,
    shards: Mutex<BTreeMap<usize, ReplicaHealth>>,
    /// Every transition in commit order — the deterministic trace the
    /// chaos harness compares across same-seed runs.
    log: Mutex<Vec<(usize, Transition)>>,
}

impl HealthRegistry {
    /// An empty registry under `policy`.
    pub fn new(policy: HealthPolicy) -> HealthRegistry {
        HealthRegistry {
            policy,
            shards: Mutex::new(BTreeMap::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The policy this registry runs under.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Whether shard `index` may receive a request right now. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits exactly one probe; further requests are rejected until
    /// the probe's outcome is recorded.
    pub fn admit(&self, index: usize, now: Instant) -> (Admission, Vec<Transition>) {
        let mut shards = lock::lock(&self.shards);
        let h = shards.entry(index).or_insert_with(ReplicaHealth::new);
        match h.state {
            BreakerState::Closed => (Admission::Admit, Vec::new()),
            BreakerState::Open => {
                let until = h.open_until.unwrap_or(now);
                if now >= until {
                    h.state = BreakerState::HalfOpen;
                    h.probe_in_flight = true;
                    h.half_open_successes = 0;
                    // Logged while still holding the shards lock so the
                    // log's order is the true commit order (lock order
                    // is always shards → log).
                    self.record_log(index, Transition::HalfOpened);
                    (Admission::Admit, vec![Transition::HalfOpened])
                } else {
                    (
                        Admission::Reject {
                            retry_after: until - now,
                        },
                        Vec::new(),
                    )
                }
            }
            BreakerState::HalfOpen => {
                if h.probe_in_flight {
                    (
                        Admission::Reject {
                            retry_after: Duration::ZERO,
                        },
                        Vec::new(),
                    )
                } else {
                    h.probe_in_flight = true;
                    (Admission::Admit, Vec::new())
                }
            }
        }
    }

    /// Record a successful request against shard `index` with its
    /// observed latency.
    pub fn record_success(&self, index: usize, latency: Duration) -> Vec<Transition> {
        self.record(index, Outcome::Success(Some(latency)))
    }

    /// Record a failed request against shard `index`; `counted` says
    /// whether it accrues toward the breaker
    /// ([`HealthPolicy::counts_toward_breaker`]).
    pub fn record_failure(&self, index: usize, counted: bool) -> Vec<Transition> {
        self.record(index, Outcome::Failure { counted })
    }

    /// Record an in-process health-probe outcome (liveness/stats
    /// probe): a success clears accrual like a served request but
    /// carries no latency sample; a failure counts toward the breaker.
    pub fn record_probe(&self, index: usize, ok: bool) -> Vec<Transition> {
        if ok {
            self.record(index, Outcome::Success(None))
        } else {
            self.record(index, Outcome::Failure { counted: true })
        }
    }

    /// Force the breaker closed — the revive path's final step once
    /// the warm-started shard passed its bit-identity probe.
    pub fn force_close(&self, index: usize) -> Vec<Transition> {
        let mut shards = lock::lock(&self.shards);
        let h = shards.entry(index).or_insert_with(ReplicaHealth::new);
        if h.state == BreakerState::Closed {
            return Vec::new();
        }
        h.state = BreakerState::Closed;
        h.consecutive_failures = 0;
        h.half_open_successes = 0;
        h.probe_in_flight = false;
        h.open_until = None;
        h.score = 0.0;
        self.record_log(index, Transition::Closed);
        vec![Transition::Closed]
    }

    /// Breaker state of shard `index` (Closed if never seen).
    pub fn state(&self, index: usize) -> BreakerState {
        lock::lock(&self.shards)
            .get(&index)
            .map_or(BreakerState::Closed, |h| h.state)
    }

    /// Health snapshot of shard `index` (pristine if never seen).
    pub fn snapshot(&self, index: usize) -> HealthSnapshot {
        lock::lock(&self.shards)
            .get(&index)
            .map_or_else(|| ReplicaHealth::new().snapshot(), ReplicaHealth::snapshot)
    }

    /// The earliest half-open probe ETA across `indices`, in
    /// milliseconds — the `Retry-After` a fully-quarantined model's
    /// `503` carries. Falls back to the base cooldown when no breaker
    /// holds an ETA.
    pub fn half_open_eta_ms(&self, indices: &[usize], now: Instant) -> u64 {
        let shards = lock::lock(&self.shards);
        indices
            .iter()
            .filter_map(|i| shards.get(i))
            .filter(|h| h.state == BreakerState::Open)
            .filter_map(|h| h.open_until)
            .map(|until| {
                u64::try_from(until.saturating_duration_since(now).as_millis()).unwrap_or(u64::MAX)
            })
            .min()
            .unwrap_or_else(|| {
                u64::try_from(self.policy.open_backoff.as_millis()).unwrap_or(u64::MAX)
            })
    }

    /// The full transition log, in commit order.
    pub fn transition_log(&self) -> Vec<(usize, Transition)> {
        lock::lock(&self.log).clone()
    }

    fn record_log(&self, index: usize, t: Transition) {
        lock::lock(&self.log).push((index, t));
    }

    fn record(&self, index: usize, outcome: Outcome) -> Vec<Transition> {
        let mut out = Vec::new();
        let mut shards = lock::lock(&self.shards);
        let h = shards.entry(index).or_insert_with(ReplicaHealth::new);
        match outcome {
            Outcome::Success(latency) => {
                h.successes += 1;
                h.score *= 1.0 - EWMA_ALPHA;
                if let Some(latency) = latency {
                    let us = latency.as_secs_f64() * 1e6;
                    h.ewma_latency_us = if h.ewma_latency_us == 0.0 {
                        us
                    } else {
                        (1.0 - EWMA_ALPHA) * h.ewma_latency_us + EWMA_ALPHA * us
                    };
                }
                match h.state {
                    BreakerState::Closed => h.consecutive_failures = 0,
                    BreakerState::HalfOpen => {
                        h.probe_in_flight = false;
                        h.half_open_successes += 1;
                        if h.half_open_successes >= SUCCESS_THRESHOLD {
                            h.state = BreakerState::Closed;
                            h.consecutive_failures = 0;
                            h.open_until = None;
                            h.score = 0.0;
                            out.push(Transition::Closed);
                        }
                    }
                    // A straggler reply from before the trip: the
                    // quarantine stands.
                    BreakerState::Open => {}
                }
            }
            Outcome::Failure { counted } => {
                h.failures += 1;
                h.score += 1.0;
                match h.state {
                    BreakerState::Closed => {
                        if counted {
                            h.consecutive_failures += 1;
                            if self.policy.enabled()
                                && h.consecutive_failures >= self.policy.failure_threshold
                            {
                                trip(h, &self.policy, index);
                                out.push(Transition::Opened);
                            }
                        }
                    }
                    BreakerState::HalfOpen => {
                        // Any recorded outcome frees the probe slot —
                        // an *uncounted* failure (deadline expiry, bad
                        // input) must not wedge the breaker half-open
                        // forever; it stays half-open and the next
                        // admission issues a fresh probe.
                        h.probe_in_flight = false;
                        if counted {
                            trip(h, &self.policy, index);
                            out.push(Transition::Opened);
                        }
                    }
                    BreakerState::Open => {}
                }
            }
        }
        for &t in &out {
            self.record_log(index, t);
        }
        drop(shards);
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum Outcome {
    Success(Option<Duration>),
    Failure { counted: bool },
}

fn trip(h: &mut ReplicaHealth, policy: &HealthPolicy, index: usize) {
    h.trips += 1;
    h.state = BreakerState::Open;
    h.consecutive_failures = 0;
    h.half_open_successes = 0;
    h.probe_in_flight = false;
    h.open_until = Some(Instant::now() + policy.cooldown(index, h.trips));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(threshold: u32, backoff: Duration) -> HealthPolicy {
        HealthPolicy {
            failure_threshold: threshold,
            open_backoff: backoff,
            max_backoff: backoff * 16,
        }
    }

    fn counted_err() -> ServeError {
        ServeError::Overloaded
    }

    #[test]
    fn opens_after_exactly_the_failure_threshold() {
        let reg = HealthRegistry::new(policy(3, Duration::from_secs(10)));
        for i in 0..2 {
            assert!(
                reg.record_failure(7, true).is_empty(),
                "failure {i} must not trip yet"
            );
            assert_eq!(reg.state(7), BreakerState::Closed);
        }
        assert_eq!(reg.record_failure(7, true), vec![Transition::Opened]);
        assert_eq!(reg.state(7), BreakerState::Open);
        // Open circuits reject with a positive retry hint.
        let (admission, transitions) = reg.admit(7, Instant::now());
        assert!(transitions.is_empty());
        match admission {
            Admission::Reject { retry_after } => assert!(retry_after > Duration::ZERO),
            Admission::Admit => panic!("open breaker must reject"),
        }
    }

    #[test]
    fn successes_interleaved_on_other_shards_do_not_reset_accrual() {
        let reg = HealthRegistry::new(policy(2, Duration::from_secs(10)));
        reg.record_failure(0, true);
        reg.record_success(1, Duration::from_millis(1));
        assert_eq!(reg.record_failure(0, true), vec![Transition::Opened]);
    }

    #[test]
    fn a_success_resets_consecutive_failures() {
        let reg = HealthRegistry::new(policy(2, Duration::from_secs(10)));
        reg.record_failure(0, true);
        reg.record_success(0, Duration::from_millis(1));
        assert!(reg.record_failure(0, true).is_empty());
        assert_eq!(reg.state(0), BreakerState::Closed);
    }

    #[test]
    fn uncounted_failures_accrue_score_but_never_trip() {
        let reg = HealthRegistry::new(policy(1, Duration::from_secs(10)));
        for _ in 0..5 {
            assert!(reg.record_failure(0, false).is_empty());
        }
        assert_eq!(reg.state(0), BreakerState::Closed);
        assert!(reg.snapshot(0).score >= 5.0);
        assert!(!HealthPolicy::counts_toward_breaker(
            &ServeError::DeadlineExceeded
        ));
        assert!(HealthPolicy::counts_toward_breaker(&counted_err()));
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let reg = HealthRegistry::new(policy(1, Duration::from_millis(1)));
        reg.record_failure(3, true);
        assert_eq!(reg.state(3), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(5));
        // Cooldown elapsed: one probe admitted, a second rejected.
        let (first, transitions) = reg.admit(3, Instant::now());
        assert_eq!(first, Admission::Admit);
        assert_eq!(transitions, vec![Transition::HalfOpened]);
        let (second, _) = reg.admit(3, Instant::now());
        assert!(matches!(second, Admission::Reject { .. }));
        // Probe fails: re-open (trip 2), then succeed on the next one.
        assert_eq!(reg.record_failure(3, true), vec![Transition::Opened]);
        std::thread::sleep(Duration::from_millis(10));
        let (probe2, _) = reg.admit(3, Instant::now());
        assert_eq!(probe2, Admission::Admit);
        assert_eq!(
            reg.record_success(3, Duration::from_millis(1)),
            vec![Transition::Closed]
        );
        assert_eq!(reg.state(3), BreakerState::Closed);
        assert_eq!(
            reg.transition_log(),
            vec![
                (3, Transition::Opened),
                (3, Transition::HalfOpened),
                (3, Transition::Opened),
                (3, Transition::HalfOpened),
                (3, Transition::Closed),
            ]
        );
    }

    #[test]
    fn uncounted_failure_frees_the_half_open_probe_slot() {
        // A probe that dies with an *uncounted* error (deadline expiry,
        // bad input) must not wedge the breaker half-open forever: the
        // slot frees, the state holds, and the next admission issues a
        // fresh probe that can still close the breaker.
        let reg = HealthRegistry::new(policy(1, Duration::from_millis(1)));
        reg.record_failure(4, true);
        assert_eq!(reg.state(4), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(5));
        let (probe, transitions) = reg.admit(4, Instant::now());
        assert_eq!(probe, Admission::Admit);
        assert_eq!(transitions, vec![Transition::HalfOpened]);
        assert!(
            reg.record_failure(4, false).is_empty(),
            "uncounted probe failure must not re-open"
        );
        assert_eq!(reg.state(4), BreakerState::HalfOpen);
        let (again, transitions) = reg.admit(4, Instant::now());
        assert_eq!(again, Admission::Admit, "probe slot must be free again");
        assert!(transitions.is_empty(), "still half-open, no new transition");
        assert_eq!(
            reg.record_success(4, Duration::from_millis(1)),
            vec![Transition::Closed]
        );
    }

    #[test]
    fn cooldown_doubles_per_trip_with_deterministic_jitter() {
        let p = policy(1, Duration::from_millis(100));
        for trip in 1..=4u64 {
            let nominal = Duration::from_millis(100 * (1 << (trip - 1))).min(p.max_backoff);
            let got = p.cooldown(9, trip);
            assert!(
                got >= nominal && got < nominal.mul_f64(1.5),
                "trip {trip}: {got:?} outside [{nominal:?}, {:?})",
                nominal.mul_f64(1.5)
            );
            assert_eq!(got, p.cooldown(9, trip), "jitter must be deterministic");
        }
        assert_ne!(
            p.cooldown(9, 1),
            p.cooldown(10, 1),
            "per-shard decorrelated"
        );
    }

    #[test]
    fn disabled_policy_never_trips() {
        let reg = HealthRegistry::new(HealthPolicy::disabled());
        for _ in 0..100 {
            assert!(reg.record_failure(0, true).is_empty());
        }
        assert_eq!(reg.state(0), BreakerState::Closed);
        let (admission, _) = reg.admit(0, Instant::now());
        assert_eq!(admission, Admission::Admit);
    }

    #[test]
    fn force_close_resets_an_open_breaker() {
        let reg = HealthRegistry::new(policy(1, Duration::from_secs(10)));
        reg.record_failure(2, true);
        assert_eq!(reg.state(2), BreakerState::Open);
        assert_eq!(reg.force_close(2), vec![Transition::Closed]);
        assert_eq!(reg.state(2), BreakerState::Closed);
        assert!(reg.force_close(2).is_empty(), "idempotent");
        let (admission, _) = reg.admit(2, Instant::now());
        assert_eq!(admission, Admission::Admit);
    }

    #[test]
    fn ewma_latency_tracks_and_score_decays() {
        let reg = HealthRegistry::new(HealthPolicy::default());
        reg.record_success(0, Duration::from_micros(100));
        reg.record_success(0, Duration::from_micros(300));
        let snap = reg.snapshot(0);
        assert!(snap.ewma_latency_us > 100.0 && snap.ewma_latency_us < 300.0);
        reg.record_failure(0, false);
        let dirty = reg.snapshot(0).score;
        reg.record_success(0, Duration::from_micros(100));
        assert!(
            reg.snapshot(0).score < dirty,
            "success must decay the score"
        );
        assert!(snap.json_object().contains("\"state\":\"closed\""));
    }
}
