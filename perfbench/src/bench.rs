//! What every workload shares: the measured window's results, counter
//! deltas, the open-loop window over TCP, and the run that turns setups
//! and windows into end-to-end metrics.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use af_fleet::FleetSnapshot;
use af_serve::{ConnSnapshot, StatsSnapshot};

use crate::catalog::{Catalog, POOL};
use crate::measure::{median, ms, peak_rss_mb, percentile_of, steal_s, Outcome, Tally, Tracer};
use crate::schedule::poisson;
use crate::wire;

/// Open-loop warm-up before the measured window.
pub const WARMUP: Duration = Duration::from_secs(1);
/// How long replies are awaited after the last send.
pub const DRAIN: Duration = Duration::from_secs(3);
/// Separates the measured window's schedule from the warm-up's.
const MEASURED_STREAM: u64 = 0x4D45_4153;
/// Pipelined keep-alive connections of the open-loop generator.
pub const CONNECTIONS: usize = 2;
/// Fewest measured latency samples a valid run has.
pub const MIN_SAMPLES: usize = 1000;
/// Send lag (p99) beyond which the generator counts as fallen behind
/// (timer wake-ups alone reach a few ms at p99 on a shared virtual
/// machine).
pub const MAX_LAG_P99_MS: f64 = 20.0;
/// Fewest requests in one slice of a window: its p99 then has ten
/// samples beyond it.
pub const SLICE_SAMPLES: usize = 1000;
pub const MAX_SLICES: usize = 20;

/// Requests of the measured window still unanswered when it closed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drain {
    pub in_flight: u64,
    pub answered: u64,
    pub unanswered: u64,
}

/// Engine counter deltas over a window (summed over engines).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineDelta {
    pub received: u64,
    pub admitted: u64,
    pub shed: u64,
    pub expired: u64,
    pub completed: u64,
    pub batches: u64,
    pub batched_requests: u64,
}

impl EngineDelta {
    pub fn between(a: &[StatsSnapshot], b: &[StatsSnapshot]) -> EngineDelta {
        let mut d = EngineDelta::default();
        for (a, b) in a.iter().zip(b) {
            d.received += b.received - a.received;
            d.admitted += b.admitted - a.admitted;
            d.shed += b.shed - a.shed;
            d.expired += b.expired - a.expired;
            d.completed += b.completed - a.completed;
            d.batches += b.batches - a.batches;
            d.batched_requests += b.batched_requests - a.batched_requests;
        }
        d
    }

    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// Reactor events handled per response over a window.
pub fn events_per_response(a: &ConnSnapshot, b: &ConnSnapshot) -> f64 {
    let events = (b.read_events + b.write_events + b.reactor_wakeups)
        - (a.read_events + a.write_events + a.reactor_wakeups);
    events as f64 / (b.responses - a.responses).max(1) as f64
}

/// Router counter deltas over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetDelta {
    pub requests: u64,
    pub completed: u64,
    pub failed: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub failovers: u64,
    pub breaker_opens: u64,
}

impl FleetDelta {
    pub fn between(a: &FleetSnapshot, b: &FleetSnapshot) -> FleetDelta {
        FleetDelta {
            requests: b.requests - a.requests,
            completed: b.completed - a.completed,
            failed: b.failed - a.failed,
            hedges: b.hedges - a.hedges,
            hedge_wins: b.hedge_wins - a.hedge_wins,
            failovers: b.failovers - a.failovers,
            breaker_opens: b.breaker_opens - a.breaker_opens,
        }
    }
}

/// Scrub passes and what they found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrubs {
    pub passes: u64,
    pub corrected: u64,
    pub uncorrectable: u64,
}

/// One measured window: per-phase accounting, latency samples and the
/// program's own counters over the same interval.
#[derive(Debug, Default)]
pub struct Window {
    pub warm: Tally,
    pub measured: Tally,
    pub drain: Drain,
    /// Measured requests as `(due, latency)`: when each was due, in
    /// seconds after the window opened, and its latency in ms (infinite
    /// for failures). Stored as `f32` so the benchmark's own memory stays
    /// small beside the system's in `peak_rss_mb`.
    pub latencies: Vec<(f32, f32)>,
    /// How late measured sends went out, in ms.
    pub lags_ms: Vec<f32>,
    pub seconds: f64,
    /// Bit-checked successes of measured requests completed inside the
    /// window, per one-second bin.
    pub completions: Vec<u64>,
    pub swaps_ms: Vec<f64>,
    pub engine: EngineDelta,
    pub events_per_request: Option<f64>,
    pub fleet: Option<FleetDelta>,
    pub scrubs: Scrubs,
    pub wal_bytes_per_swap: Option<f64>,
    /// Counter totals that did not reconcile with the client's view.
    pub mismatches: Vec<String>,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the window: the noise a shared host adds.
    pub host_steal_share: f64,
}

impl Window {
    pub fn new(seconds: f64) -> Window {
        Window {
            seconds,
            completions: vec![0; seconds.ceil() as usize],
            ..Window::default()
        }
    }

    /// Count a success completed `after_open` into the window (ignored
    /// outside it).
    pub fn complete(&mut self, after_open: Duration) {
        if let Some(bin) = self.completions.get_mut(after_open.as_secs() as usize) {
            if after_open.as_secs_f64() < self.seconds {
                *bin += 1;
            }
        }
    }

    /// Successes per second: the mean of the middle half of the window's
    /// whole one-second bins, so a few disturbed seconds do not move it.
    pub fn throughput(&self) -> f64 {
        let whole = (self.seconds.floor() as usize)
            .max(1)
            .min(self.completions.len());
        let mut bins: Vec<u64> = self.completions[..whole].to_vec();
        bins.sort_unstable();
        let middle = &bins[whole / 4..whole - whole / 4];
        middle.iter().sum::<u64>() as f64 / middle.len() as f64
    }

    /// Record a measured request that started `at` seconds into the
    /// window and took `latency_ms` (infinite for a failure).
    pub fn latency(&mut self, at: f64, latency_ms: f64) {
        self.latencies.push((at as f32, latency_ms as f32));
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, l)| f64::from(l)).collect()
    }

    pub fn lag_p99_ms(&self) -> f64 {
        percentile_of(
            &mut self
                .lags_ms
                .iter()
                .map(|&l| f64::from(l))
                .collect::<Vec<_>>(),
            0.99,
        )
    }

    /// The measured latencies cut into equal-time slices of at least
    /// `SLICE_SAMPLES` requests each (so a slice's p99 has ten samples
    /// beyond it).
    pub fn slices(&self) -> Vec<Vec<f64>> {
        let n = (self.latencies.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
        let len = self.seconds / n as f64;
        let mut out = vec![Vec::new(); n];
        for &(t, l) in &self.latencies {
            out[((f64::from(t) / len) as usize).min(n - 1)].push(f64::from(l));
        }
        out
    }

    /// Compare a program counter with the client-side count it should
    /// equal, recording any mismatch.
    pub fn reconcile(&mut self, what: &str, program: u64, client: u64) {
        if program != client {
            self.mismatches
                .push(format!("{what}: program {program}, client {client}"));
        }
    }

    pub fn all_phases(&self) -> Tally {
        let mut t = self.warm;
        t.add(&self.measured);
        t
    }

    pub fn phases_json(&self) -> String {
        format!(
            "{{\"warmup\":{},\"measured\":{},\"drain\":{{\"in_flight_at_close\":{},\"answered\":{},\"unanswered\":{}}}}}",
            self.warm.json(),
            self.measured.json(),
            self.drain.in_flight,
            self.drain.answered,
            self.drain.unanswered
        )
    }
}

/// Send a seeded Poisson schedule at `rate` over `CONNECTIONS` pipelined
/// connections to `addr`: `WARMUP`, then `seconds` measured, then up to
/// `DRAIN` for stragglers. Fills the client-side half of a [`Window`].
pub fn open_loop(
    addr: SocketAddr,
    catalog: &Catalog,
    seed: u64,
    rate: f64,
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let measured = Duration::from_secs_f64(seconds);
    let variants = catalog.specs.len();
    let mut schedule = poisson(seed, rate, WARMUP, variants, POOL);
    schedule.extend(
        poisson(seed ^ MEASURED_STREAM, rate, measured, variants, POOL)
            .into_iter()
            .map(|mut a| {
                a.due += WARMUP;
                a
            }),
    );
    let start = Instant::now() + Duration::from_millis(20);
    let give_up = start + WARMUP + measured + DRAIN;
    let steal0 = steal_s();
    let records = wire::drive(
        addr,
        CONNECTIONS,
        start,
        &schedule,
        |a| catalog.requests[a.variant][a.input].as_slice(),
        |a| catalog.expected_body[a.variant][a.input].as_slice(),
        give_up,
        tracer,
    )
    .expect("open-loop connections");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal_share = (steal_s() - steal0) / (cpus * start.elapsed().as_secs_f64());
    let open = start + WARMUP;
    let close = open + measured;
    let mut w = Window::new(seconds);
    w.host_steal_share = steal_share;
    for (a, r) in schedule.iter().zip(&records) {
        let due = start + a.due;
        if a.due < WARMUP {
            w.warm.sent += 1;
            w.warm.record(r.outcome);
            continue;
        }
        w.measured.sent += 1;
        w.measured.record(r.outcome);
        w.lags_ms
            .push(ms(r.sent.saturating_duration_since(due)) as f32);
        let at = (a.due - WARMUP).as_secs_f64();
        if r.outcome == Outcome::Ok {
            w.latency(at, ms(r.done.saturating_duration_since(due)));
            w.complete(r.done.saturating_duration_since(open));
        } else {
            w.latency(at, f64::INFINITY);
        }
        if r.done > close {
            w.drain.in_flight += 1;
            if r.outcome == Outcome::Transport {
                w.drain.unanswered += 1;
            } else {
                w.drain.answered += 1;
            }
        }
    }
    w
}

/// A workload: how to build the system, drive one window, and profile
/// its layers.
pub trait Bench {
    type System;

    /// Fresh system up to its first reply, and whether that reply was
    /// bit-identical to the reference; spans of the calls it makes go to
    /// `tracer`.
    fn setup(&self, tracer: &Tracer) -> (Self::System, bool);

    fn teardown(&self, sys: Self::System);

    /// One warm-up + measured + drain window.
    fn window(&self, sys: &Self::System, seconds: f64, tracer: &Tracer) -> Window;

    /// The per-layer profile after a traced window.
    fn profile(
        &self,
        sys: &Self::System,
        window: &Window,
        tracer: &Tracer,
        setup_spans: (u64, u64),
    ) -> Vec<Metric>;

    /// Setups per run (their median is `setup_s`).
    fn setup_reps(&self) -> usize;
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median over the window's slices of one latency percentile: one
/// burst of host noise moves a run's figure by at most one slice.
pub fn sliced_percentile(w: &Window, q: f64) -> f64 {
    median(
        &mut w
            .slices()
            .into_iter()
            .map(|mut l| percentile_of(&mut l, q))
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics of one setup series plus window.
pub fn end_to_end(setups_s: &mut [f64], w: &Window) -> Vec<Metric> {
    vec![
        metric("throughput_rps", w.throughput(), "1/s"),
        metric("latency_p50_ms", sliced_percentile(w, 0.50), "ms"),
        metric(
            "success_share",
            w.measured.ok as f64 / w.measured.sent.max(1) as f64,
            "share",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("setup_s", median(setups_s), "s"),
    ]
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub windows: Vec<(&'static str, Window)>,
    pub setups_s: Vec<f64>,
    pub correct: bool,
}

/// Set up `setup_reps` times (keeping the last system), returning the
/// setup times in seconds; clears `probes_ok` on any wrong first reply.
fn setups<B: Bench>(
    bench: &B,
    tracer: &Tracer,
    keep: &mut Option<B::System>,
    probes_ok: &mut bool,
) -> Vec<f64> {
    (0..bench.setup_reps())
        .map(|_| {
            if let Some(old) = keep.take() {
                bench.teardown(old);
            }
            let t0 = Instant::now();
            let (sys, ok) = bench.setup(tracer);
            let secs = t0.elapsed().as_secs_f64();
            *probes_ok &= ok;
            *keep = Some(sys);
            secs
        })
        .collect()
}

/// Untraced setups and window; with `trace`, the window is split into an
/// untraced and a traced half (after traced setups), followed by the
/// layer profile and the tracing overhead.
pub fn run<B: Bench>(bench: &B, seconds: f64, trace: bool, tracer: &Tracer) -> RunResult {
    let seconds = if trace { seconds / 2.0 } else { seconds };
    let off = Tracer::new(false);
    let mut sys = None;
    let mut correct = true;
    let mut setups_s = setups(bench, &off, &mut sys, &mut correct);
    let window = bench.window(sys.as_ref().expect("system"), seconds, &off);
    let plain = end_to_end(&mut setups_s, &window);
    let mut windows = vec![("untraced", window)];
    let mut metrics = plain.clone();
    if trace {
        let first = tracer.cursor();
        let mut traced_setups = setups(bench, tracer, &mut sys, &mut correct);
        let setup_spans = (first, tracer.cursor());
        let window = bench.window(sys.as_ref().expect("system"), seconds, tracer);
        let traced = end_to_end(&mut traced_setups, &window);
        metrics = bench.profile(sys.as_ref().expect("system"), &window, tracer, setup_spans);
        for (t, p) in traced.iter().zip(&plain) {
            metrics.push(metric(
                &format!("overhead.{}", t.name),
                t.value - p.value,
                t.unit,
            ));
        }
        setups_s.extend(traced_setups);
        windows.push(("traced", window));
    }
    bench.teardown(sys.expect("system"));
    // Every reply bit-identical, and no scrub found a flipped bit (none
    // is injected, so a correction means corrupted storage).
    correct &= windows.iter().all(|(_, w)| {
        w.all_phases().wrong_bits == 0 && w.scrubs.corrected + w.scrubs.uncorrectable == 0
    });
    correct &= metrics
        .iter()
        .all(|m| m.name != "resilience.ecc_corrected" || m.value == 0.0);
    RunResult {
        metrics,
        windows,
        setups_s,
        correct,
    }
}
