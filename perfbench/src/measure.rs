//! Measurement plumbing: percentiles, per-phase request accounting,
//! in-memory spans and process memory.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice:
/// the smallest value with at least `q · n` samples at or below it.
/// Failed requests enter as `f64::INFINITY`, so a percentile that
/// reaches into them reads infinite.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (infinities last) and take the percentile.
pub fn percentile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile_of(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A reply bit-identical to the precomputed reference.
    Ok,
    /// Refused with `429`.
    Shed,
    /// Answered with any other non-200 status (`503`, `504`, `5xx`, ...).
    Status(u16),
    /// The connection failed or the reply never came.
    Transport,
    /// A `200` whose output bits differ from the reference.
    WrongBits,
}

/// Requests of one phase: sent, and how each ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed_429: u64,
    pub status_5xx: u64,
    pub transport: u64,
    pub wrong_bits: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed_429 += 1,
            Outcome::Status(_) => self.status_5xx += 1,
            Outcome::Transport => self.transport += 1,
            Outcome::WrongBits => self.wrong_bits += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.shed_429 + self.status_5xx + self.transport + self.wrong_bits
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed_429 += o.shed_429;
        self.status_5xx += o.status_5xx;
        self.transport += o.transport;
        self.wrong_bits += o.wrong_bits;
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"sent\":{},\"succeeded\":{},\"failed\":{},\"failed_429\":{},\
             \"failed_5xx\":{},\"failed_transport\":{},\"failed_wrong_bits\":{}}}",
            self.sent,
            self.ok,
            self.failed(),
            self.shed_429,
            self.status_5xx,
            self.transport,
            self.wrong_bits
        )
    }
}

/// One finished span: a timed call into a layer, with the span that
/// caused it and the request it served (0 = none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory for the run and written out at the end. A
/// disabled tracer records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when tracing is off).
    pub fn span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        id
    }

    /// Time `f` as a root span named `name`.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.span(name, t0, Instant::now(), 0, 0);
        out
    }

    /// Durations (µs) of every span named `name` whose id is in `ids`.
    pub fn durations_us(&self, name: &str, ids: std::ops::Range<u64>) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.id))
            .map(Span::us)
            .collect()
    }

    /// The id the next span will get (a cursor for `durations_us`).
    pub fn cursor(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// All spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU time stolen from this machine so far (all CPUs), in seconds.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(f64::NAN, |t| t / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // Odd count: the median is the middle element.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 98 successes and 2 failures: p50 is finite, p99 reaches the
        // failures.
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        v.reverse();
        assert_eq!(percentile_of(&mut v, 0.5), 50.0);
        assert!(percentile_of(&mut v, 0.99).is_infinite());
        assert_eq!(percentile_of(&mut v, 0.98), 98.0);
    }

    #[test]
    fn tally_counts_every_cause() {
        let mut t = Tally {
            sent: 5,
            ..Tally::default()
        };
        for o in [
            Outcome::Ok,
            Outcome::Shed,
            Outcome::Status(504),
            Outcome::Transport,
            Outcome::WrongBits,
        ] {
            t.record(o);
        }
        assert_eq!((t.ok, t.failed()), (1, 4));
    }
}
