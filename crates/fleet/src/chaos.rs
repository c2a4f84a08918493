//! Deterministic chaos orchestration for the fleet tier.
//!
//! A [`ChaosHarness`] drives a live [`FleetRouter`] through a
//! [`ChaosSchedule`] — scripted or seeded-random sequences of shard
//! kills and revives, injected faults ([`InjectedFault`] through the
//! shard engine's one fault seam, `Engine::inject_fault`), WAL
//! corruption (via
//! `af_resilience::FaultSpec` over the shard's `wal.log` bytes), health
//! probes, and seeded traffic — and checks the fleet's resilience
//! invariants after every run:
//!
//! * **Exactly one reply per request, zero lost or duplicated
//!   replies.** Every routed request returns exactly once; the report
//!   cross-checks the per-call tally against the router's own counters.
//! * **Bit-identical answers.** Golden outputs are captured on the
//!   healthy fleet before chaos starts; every successful reply during
//!   and after chaos must match them bit for bit.
//! * **Bounded failure detection.** Breakers open within
//!   `failure_threshold` counted failures and re-close after revive —
//!   the full transition log is part of the report.
//! * **Recovery.** [`ChaosHarness::run`] ends with a recovery epilogue
//!   (heal every fault, revive every dead ring member, probe, replay
//!   all goldens) so "the fleet comes back bit-identical" is asserted
//!   for *every* schedule, including seeded-random ones.
//!
//! **Determinism.** Schedules, traffic (model and input choice per
//! request), and WAL corruption maps all come from counter-based
//! [`SplitMix64`] streams, and an injected shed refuses every
//! admission while it is installed; run a harness twice over
//! fresh fleets with the same seeds and hedging disabled (plus
//! time-independent breaker policy, e.g. a large `open_backoff`) and
//! you get identical request outcomes, transition sequences, and final
//! fleet fingerprints — [`ChaosReport::determinism_key`] is the
//! string two such runs must agree on, and `chaos_smoke` asserts it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use af_resilience::rng::mix;
use af_resilience::{FaultSpec, SplitMix64};
use af_serve::InjectedFault;
use af_store::shard_root;

use crate::health::{BreakerState, Transition};
use crate::router::{FleetRouter, FleetSnapshot};
use crate::shard::ShardConfig;

/// Hash domain for the harness's traffic stream (model/input choice).
const DOMAIN_TRAFFIC: u64 = 0xC4A0_77AF;
/// Hash domain for seeded schedule generation.
const DOMAIN_SCHEDULE: u64 = 0xC4A0_5C4E;
/// Hash domain for the golden input pool.
const DOMAIN_INPUTS: u64 = 0xC4A0_117A;

/// One step of a chaos schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// Crash a live shard (no checkpoint; WAL stays for revive).
    Kill {
        /// Victim shard index.
        shard: usize,
    },
    /// Warm-start a dead ring member back (WAL replay + bit-identity
    /// probe before its breaker closes).
    Revive {
        /// Shard index to warm-start.
        shard: usize,
    },
    /// Install a fault on a live shard's engine.
    Sicken {
        /// Target shard index.
        shard: usize,
        /// The fault to install.
        fault: InjectedFault,
    },
    /// Clear any fault on a live shard's engine.
    Heal {
        /// Target shard index.
        shard: usize,
    },
    /// Flip bits in a **dead** shard's `wal.log` (deterministic
    /// [`FaultSpec`] map over the file's bytes) — its next revive must
    /// fail loudly rather than serve corrupt weights. Skipped (counted
    /// as a no-op) if the shard is live.
    CorruptWal {
        /// Target shard index (must be dead to take effect).
        shard: usize,
        /// Per-byte corruption probability.
        rate: f64,
        /// Corruption map seed.
        seed: u64,
    },
    /// Route `requests` seeded requests through the fleet, checking
    /// every success against its golden bits.
    Traffic {
        /// Number of requests to route.
        requests: usize,
    },
    /// Run `rounds` in-process health-probe sweeps over all ring
    /// members ([`FleetRouter::probe_health`]).
    Probe {
        /// Number of sweeps.
        rounds: usize,
    },
}

/// An ordered list of chaos events.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The events, executed in order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// A hand-written schedule.
    pub fn scripted(events: Vec<ChaosEvent>) -> ChaosSchedule {
        ChaosSchedule { events }
    }

    /// A seeded-random schedule of `steps` events over shards
    /// `0..shards`: traffic interleaved with kills, revives, injected
    /// faults, heals, and probe sweeps, every draw from a
    /// counter-based stream so the same `(seed, steps, shards)` always
    /// yields the same schedule. Injected faults are
    /// [`InjectedFault::hard_failure`] sheds so request outcomes stay
    /// time-independent; WAL corruption is scripted-only (it makes a
    /// shard unrevivable, which the recovery epilogue would then
    /// depend on timing to absorb).
    pub fn seeded(seed: u64, steps: usize, shards: usize) -> ChaosSchedule {
        assert!(shards > 0, "a schedule needs at least one shard");
        let mut events = Vec::with_capacity(steps);
        for step in 0..steps {
            let mut rng = SplitMix64::for_element(seed, DOMAIN_SCHEDULE, step as u64);
            let shard = rng.next_below(shards as u64) as usize;
            let event = match rng.next_below(8) {
                // Traffic dominates: chaos without load observes nothing.
                0..=2 => ChaosEvent::Traffic {
                    requests: 4 + rng.next_below(12) as usize,
                },
                3 => ChaosEvent::Kill { shard },
                4 => ChaosEvent::Revive { shard },
                5 => ChaosEvent::Sicken {
                    shard,
                    fault: InjectedFault::hard_failure(),
                },
                6 => ChaosEvent::Heal { shard },
                _ => ChaosEvent::Probe { rounds: 1 },
            };
            events.push(event);
        }
        ChaosSchedule { events }
    }
}

/// What a chaos run observed; every invariant the harness enforces is
/// readable (and assertable) from here.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Requests routed during the schedule (traffic events only).
    pub sent: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Requests that never returned: `sent − (ok + failed)`. A routed
    /// request returns exactly once, so anything but 0 is a lost reply.
    pub lost: u64,
    /// Extra completions the router counted beyond `sent` — a
    /// duplicated reply. Must be 0.
    pub duplicated: u64,
    /// Successful replies whose bits differed from the golden capture.
    pub mismatched: u64,
    /// Kill events that found their victim alive.
    pub kills: u64,
    /// Successful revives.
    pub revives: u64,
    /// Revives rejected by the store (e.g. a corrupted WAL failing
    /// loudly).
    pub revive_rejected: u64,
    /// Sicken/Heal events applied.
    pub faults_toggled: u64,
    /// Bytes flipped by `CorruptWal` events.
    pub wal_bytes_corrupted: u64,
    /// Per-request wall latencies, microseconds, in send order.
    pub latencies_us: Vec<u64>,
    /// Router counter deltas across the run (requests, breaker
    /// transitions, failovers, degraded serves, ...).
    pub stats: FleetSnapshot,
    /// Every breaker transition committed during the run, in order.
    pub transitions: Vec<(usize, Transition)>,
    /// Golden replays that mismatched during the recovery epilogue.
    pub recovery_mismatched: u64,
    /// Whether every golden replayed successfully (and bit-identically)
    /// after recovery.
    pub recovered_bit_identical: bool,
    /// Order-independent digest of the final fleet state: live set,
    /// ring membership, breaker states, per-model generations.
    pub fingerprint: u64,
}

impl ChaosReport {
    /// Fraction of routed requests answered successfully (1.0 when
    /// nothing was sent).
    pub fn availability(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.ok as f64 / self.sent as f64
        }
    }

    /// Latency percentile in microseconds over the run's requests
    /// (`q` in `[0, 1]`; 0 when nothing was sent).
    pub fn latency_us(&self, q: f64) -> u64 {
        percentile_us(&self.latencies_us, q)
    }

    /// The string two same-seed runs over fresh fleets must agree on:
    /// request outcomes, every breaker transition in order, and the
    /// final fleet fingerprint. Latencies are deliberately excluded —
    /// wall time is the one thing chaos does not control.
    pub fn determinism_key(&self) -> String {
        let transitions: Vec<String> = self
            .transitions
            .iter()
            .map(|(shard, t)| format!("{shard}:{}", t.label()))
            .collect();
        format!(
            "sent={} ok={} failed={} mismatched={} kills={} revives={} \
             rejected={} transitions=[{}] recovery_mismatched={} fingerprint={:016x}",
            self.sent,
            self.ok,
            self.failed,
            self.mismatched,
            self.kills,
            self.revives,
            self.revive_rejected,
            transitions.join(","),
            self.recovery_mismatched,
            self.fingerprint,
        )
    }

    /// Render the report as a JSON object (no trailing newline).
    pub fn json_object(&self) -> String {
        let transitions: Vec<String> = self
            .transitions
            .iter()
            .map(|(shard, t)| format!("\"{shard}:{}\"", t.label()))
            .collect();
        format!(
            "{{\"sent\":{},\"ok\":{},\"failed\":{},\"lost\":{},\"duplicated\":{},\
             \"mismatched\":{},\"availability\":{:.4},\"p50_us\":{},\"p99_us\":{},\
             \"kills\":{},\"revives\":{},\"revive_rejected\":{},\"faults_toggled\":{},\
             \"wal_bytes_corrupted\":{},\"breaker_opens\":{},\"breaker_half_opens\":{},\
             \"breaker_closes\":{},\"breaker_rejections\":{},\"degraded\":{},\
             \"unavailable\":{},\"failovers\":{},\"transitions\":[{}],\
             \"recovery_mismatched\":{},\"recovered_bit_identical\":{},\
             \"fingerprint\":\"{:016x}\"}}",
            self.sent,
            self.ok,
            self.failed,
            self.lost,
            self.duplicated,
            self.mismatched,
            self.availability(),
            self.latency_us(0.50),
            self.latency_us(0.99),
            self.kills,
            self.revives,
            self.revive_rejected,
            self.faults_toggled,
            self.wal_bytes_corrupted,
            self.stats.breaker_opens,
            self.stats.breaker_half_opens,
            self.stats.breaker_closes,
            self.stats.breaker_rejections,
            self.stats.degraded,
            self.stats.unavailable,
            self.stats.failovers,
            transitions.join(","),
            self.recovery_mismatched,
            self.recovered_bit_identical,
            self.fingerprint,
        )
    }
}

/// Latency percentile helper (nearest-rank over a copy; 0 if empty).
pub fn percentile_us(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives one router through chaos schedules. Capture goldens on a
/// healthy fleet (construction routes one request per `(model, input)`
/// pair and panics if any fails — chaos must start from green), then
/// [`run`](Self::run) schedules against it.
#[derive(Debug)]
pub struct ChaosHarness {
    router: Arc<FleetRouter>,
    shard_cfg: ShardConfig,
    models: Vec<String>,
    inputs: Vec<Vec<f32>>,
    goldens: BTreeMap<(usize, usize), Vec<u32>>,
    deadline: Duration,
    traffic_seed: u64,
    /// Monotone traffic position across `run` calls, so back-to-back
    /// schedules see one continuous deterministic request stream.
    offset: u64,
}

impl ChaosHarness {
    /// Build a harness over `router` (which must already serve every
    /// id in `models`, all with input width `width`): synthesizes a
    /// pool of `pool` deterministic inputs from `traffic_seed` and
    /// captures golden output bits for every `(model, input)` pair.
    ///
    /// # Panics
    ///
    /// If any golden capture fails — the fleet must be healthy before
    /// chaos starts.
    pub fn new(
        router: Arc<FleetRouter>,
        shard_cfg: ShardConfig,
        models: Vec<String>,
        width: usize,
        pool: usize,
        deadline: Duration,
        traffic_seed: u64,
    ) -> ChaosHarness {
        assert!(!models.is_empty() && pool > 0, "need models and inputs");
        let inputs: Vec<Vec<f32>> = (0..pool)
            .map(|i| {
                let mut rng = SplitMix64::for_element(traffic_seed, DOMAIN_INPUTS, i as u64);
                (0..width)
                    .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
                    .collect()
            })
            .collect();
        let mut goldens = BTreeMap::new();
        for (m, model) in models.iter().enumerate() {
            for (i, input) in inputs.iter().enumerate() {
                let output = router
                    .infer_deadline(model, input.clone(), deadline)
                    .unwrap_or_else(|e| panic!("golden capture failed for {model}: {e}"));
                goldens.insert((m, i), output.iter().map(|f| f.to_bits()).collect());
            }
        }
        ChaosHarness {
            router,
            shard_cfg,
            models,
            inputs,
            goldens,
            deadline,
            traffic_seed,
            offset: 0,
        }
    }

    /// The router under test.
    pub fn router(&self) -> &Arc<FleetRouter> {
        &self.router
    }

    /// Execute `schedule`, then the recovery epilogue: heal every
    /// injected fault, revive every dead ring member, one probe sweep,
    /// and a full golden replay. The traffic counter keeps running
    /// across [`run`](Self::run) calls, so back-to-back schedules see
    /// one continuous deterministic request stream.
    ///
    /// # Panics
    ///
    /// If any live shard's engine breaks a counter conservation law
    /// after recovery, or a killed shard's engine does once it has
    /// drained ([`Engine::assert_conserved`]).
    ///
    /// [`Engine::assert_conserved`]: af_serve::Engine::assert_conserved
    pub fn run(&mut self, schedule: &ChaosSchedule) -> ChaosReport {
        let before = self.router.stats().snapshot();
        let transitions_before = self.router.health().transition_log().len();
        let mut report = ChaosReport {
            sent: 0,
            ok: 0,
            failed: 0,
            lost: 0,
            duplicated: 0,
            mismatched: 0,
            kills: 0,
            revives: 0,
            revive_rejected: 0,
            faults_toggled: 0,
            wal_bytes_corrupted: 0,
            latencies_us: Vec::new(),
            stats: FleetSnapshot::default(),
            transitions: Vec::new(),
            recovery_mismatched: 0,
            recovered_bit_identical: true,
            fingerprint: 0,
        };
        for event in &schedule.events {
            self.apply(*event, &mut report);
        }
        self.recover(&mut report);
        // Every request a shard engine admitted was answered exactly
        // once, faults and revives included.
        for index in self.router.live_shards() {
            if let Some(shard) = self.router.shard(index) {
                shard.engine().assert_conserved();
            }
        }
        // Invariant bookkeeping: one reply per request, nothing lost,
        // nothing duplicated (the router's own counters are the
        // second witness).
        let after = self.router.stats().snapshot();
        let routed = after.requests - before.requests;
        let answered = (after.completed - before.completed) + (after.failed - before.failed);
        report.lost = routed.saturating_sub(answered);
        report.duplicated = answered.saturating_sub(routed);
        report.stats = delta(&before, &after);
        let mut log = self.router.health().transition_log();
        report.transitions = log.split_off(transitions_before.min(log.len()));
        report.fingerprint = self.fingerprint();
        report
    }

    fn apply(&mut self, event: ChaosEvent, report: &mut ChaosReport) {
        match event {
            ChaosEvent::Kill { shard } => {
                let engine = self.router.shard(shard).map(|s| Arc::clone(s.engine()));
                if self.router.kill(shard) {
                    report.kills += 1;
                }
                // The dead shard takes no new work; once what it had
                // admitted drains, its counters must balance too.
                if let Some(engine) = engine {
                    engine.assert_conserved();
                }
            }
            ChaosEvent::Revive { shard } => self.revive(shard, report),
            ChaosEvent::Sicken { shard, fault } => {
                if let Some(s) = self.router.shard(shard) {
                    s.engine().inject_fault(Some(fault));
                    report.faults_toggled += 1;
                }
            }
            ChaosEvent::Heal { shard } => self.heal(shard, report),
            ChaosEvent::CorruptWal { shard, rate, seed } => {
                if self.router.shard(shard).is_none() {
                    report.wal_bytes_corrupted +=
                        corrupt_wal(self.router.root(), shard, rate, seed);
                }
            }
            ChaosEvent::Traffic { requests } => {
                for _ in 0..requests {
                    self.one_request(report);
                }
            }
            ChaosEvent::Probe { rounds } => {
                for _ in 0..rounds {
                    let _ = self.router.probe_health();
                }
            }
        }
    }

    fn heal(&self, shard: usize, report: &mut ChaosReport) {
        if let Some(s) = self.router.shard(shard) {
            if s.engine().injected_fault().is_some() {
                s.engine().inject_fault(None);
                report.faults_toggled += 1;
            }
        }
    }

    fn revive(&mut self, shard: usize, report: &mut ChaosReport) {
        if self.router.shard(shard).is_some() {
            return; // already live
        }
        if !self.router.ring_members().contains(&shard) {
            return; // never joined
        }
        match self.router.revive(shard, self.shard_cfg) {
            Ok(_) => report.revives += 1,
            Err(_) => report.revive_rejected += 1,
        }
    }

    fn one_request(&mut self, report: &mut ChaosReport) {
        let n = self.offset;
        self.offset += 1;
        let mut rng = SplitMix64::for_element(self.traffic_seed, DOMAIN_TRAFFIC, n);
        let m = rng.next_below(self.models.len() as u64) as usize;
        let i = rng.next_below(self.inputs.len() as u64) as usize;
        report.sent += 1;
        let start = Instant::now();
        let result =
            self.router
                .infer_deadline(&self.models[m], self.inputs[i].clone(), self.deadline);
        report
            .latencies_us
            .push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        match result {
            Ok(output) => {
                report.ok += 1;
                let bits: Vec<u32> = output.iter().map(|f| f.to_bits()).collect();
                if self.goldens[&(m, i)] != bits {
                    report.mismatched += 1;
                }
            }
            Err(_) => report.failed += 1,
        }
    }

    /// Heal every fault, revive every dead ring member, probe once,
    /// replay every golden.
    fn recover(&mut self, report: &mut ChaosReport) {
        for index in self.router.live_shards() {
            self.heal(index, report);
        }
        for index in self.router.ring_members() {
            self.revive(index, report);
        }
        let _ = self.router.probe_health();
        for (&(m, i), want) in &self.goldens {
            match self
                .router
                .infer_deadline(&self.models[m], self.inputs[i].clone(), self.deadline)
            {
                Ok(output) => {
                    let bits: Vec<u32> = output.iter().map(|f| f.to_bits()).collect();
                    if &bits != want {
                        report.recovery_mismatched += 1;
                        report.recovered_bit_identical = false;
                    }
                }
                Err(_) => report.recovered_bit_identical = false,
            }
        }
    }

    /// Order-independent digest of the fleet's externally observable
    /// state: ring membership, live set, breaker state per member, and
    /// per-model generation vectors.
    fn fingerprint(&self) -> u64 {
        let mut acc = 0xF1EE_D1DEu64;
        for member in self.router.ring_members() {
            acc = mix(acc ^ (member as u64) << 1);
            let state = match self.router.health().state(member) {
                BreakerState::Closed => 0u64,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            };
            acc = mix(acc ^ state);
            acc = mix(acc ^ u64::from(self.router.shard(member).is_some()));
        }
        for id in self.router.model_ids() {
            for byte in id.bytes() {
                acc = mix(acc ^ u64::from(byte));
            }
            for (shard, generation) in self.router.generations(&id) {
                acc = mix(acc ^ ((shard as u64) << 32 | generation));
            }
        }
        acc
    }
}

/// XOR a deterministic single-bit fault map into a dead shard's
/// `wal.log`; returns how many bytes were struck (0 if the file is
/// missing or unreadable — a shard that never wrote is not corruptible).
fn corrupt_wal(fleet_root: &std::path::Path, shard: usize, rate: f64, seed: u64) -> u64 {
    let path = shard_root(fleet_root, shard).join("wal.log");
    let Ok(mut bytes) = std::fs::read(&path) else {
        return 0;
    };
    let map = FaultSpec::single_bit(rate, seed).sample(bytes.len(), 8);
    for event in map.events() {
        bytes[event.index] = (event.apply(u64::from(bytes[event.index])) & 0xFF) as u8;
    }
    if std::fs::write(&path, &bytes).is_err() {
        return 0;
    }
    map.len() as u64
}

fn delta(before: &FleetSnapshot, after: &FleetSnapshot) -> FleetSnapshot {
    FleetSnapshot {
        requests: after.requests - before.requests,
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        hedges: after.hedges - before.hedges,
        hedge_wins: after.hedge_wins - before.hedge_wins,
        failovers: after.failovers - before.failovers,
        breaker_opens: after.breaker_opens - before.breaker_opens,
        breaker_half_opens: after.breaker_half_opens - before.breaker_half_opens,
        breaker_closes: after.breaker_closes - before.breaker_closes,
        breaker_rejections: after.breaker_rejections - before.breaker_rejections,
        degraded: after.degraded - before.degraded,
        unavailable: after.unavailable - before.unavailable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = ChaosSchedule::seeded(42, 64, 3);
        let b = ChaosSchedule::seeded(42, 64, 3);
        let c = ChaosSchedule::seeded(43, 64, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events.len(), 64);
        assert!(
            a.events
                .iter()
                .any(|e| matches!(e, ChaosEvent::Traffic { .. })),
            "a 64-step schedule without traffic observes nothing"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_us(&[], 0.99), 0);
        assert_eq!(percentile_us(&[5], 0.5), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 0.50), 50);
        assert_eq!(percentile_us(&v, 0.99), 99);
        assert_eq!(percentile_us(&v, 1.0), 100);
    }
}
