//! Serving counters: lock-free atomics bumped on the hot path, read as
//! a consistent-enough snapshot by `GET /stats` and the load harness.
//!
//! Besides the monotonic totals, two **gauges** expose the engine's
//! instantaneous load — `queue_depth` (admitted requests waiting in
//! variant queues) and `in_flight` (requests inside an evaluate pass
//! right now). They are written from structural reads of the engine
//! (never from paired inc/dec events), so a panicked worker can never leave
//! them drifted; a fleet router reads their sum as the shard's load
//! signal for backpressure-aware replica selection.

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-lifetime serving counters (relaxed atomics — each counter is
/// individually exact; a snapshot across counters is approximate, which
/// is fine for monitoring).
#[derive(Debug, Default)]
pub struct ServeStats {
    received: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    worker_restarts: AtomicU64,
    scrub_passes: AtomicU64,
    rebuilds: AtomicU64,
    last_scrub_us: AtomicU64,
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
}

impl ServeStats {
    /// A request reached admission.
    pub fn on_received(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered a variant queue.
    pub fn on_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was shed with `Overloaded`: its queue was full, or an
    /// injected fault refused it.
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused at admission for any reason but a shed
    /// (unknown model, bad width, shutting down).
    pub fn on_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline expired before evaluation.
    pub fn on_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` admitted requests were answered with an error other than an
    /// expired deadline (their variant vanished or changed width, or
    /// their batch was lost to a worker fault).
    pub fn on_failed(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    /// A request was answered successfully.
    pub fn on_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A batch of `size` live requests went through one evaluate pass.
    pub fn on_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// An evaluate pass panicked; its worker caught it and serves on.
    pub fn on_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// A scrub pass over every protected variant completed, taking
    /// `elapsed_us` microseconds.
    pub fn on_scrub_pass(&self, elapsed_us: u64) {
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.last_scrub_us.store(elapsed_us, Ordering::Relaxed);
    }

    /// An uncorrectable storage error forced a rebuild + hot swap.
    pub fn on_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the engine's instantaneous load gauges: `queue_depth`
    /// admitted-and-waiting requests, `in_flight` requests inside an
    /// evaluate pass. The engine refreshes these from structural reads
    /// (queue lengths and per-worker evaluating counters) whenever the
    /// load signal is consulted.
    pub fn set_load(&self, queue_depth: u64, in_flight: u64) {
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        self.in_flight.store(in_flight, Ordering::Relaxed);
    }

    /// Current load signal: `queue_depth + in_flight` as last published
    /// by [`set_load`](Self::set_load).
    pub fn load(&self) -> u64 {
        self.queue_depth
            .load(Ordering::Relaxed)
            .saturating_add(self.in_flight.load(Ordering::Relaxed))
    }

    /// Read every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            received: self.received.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            last_scrub_us: self.last_scrub_us.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests that reached admission.
    pub received: u64,
    /// Requests that entered a queue.
    pub admitted: u64,
    /// Requests shed with `Overloaded` (full queue or injected fault).
    pub shed: u64,
    /// Requests refused at admission for any other reason.
    pub rejected: u64,
    /// Requests whose deadline expired before evaluation.
    pub expired: u64,
    /// Admitted requests answered with any other error.
    pub failed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Evaluate passes run.
    pub batches: u64,
    /// Live requests summed over all batches.
    pub batched_requests: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Panicked evaluate passes, each caught by its worker.
    pub worker_restarts: u64,
    /// Completed scrub passes over the protected variants.
    pub scrub_passes: u64,
    /// Uncorrectable-error rebuilds (each hot-swapped a snapshot).
    pub rebuilds: u64,
    /// Duration of the most recent scrub pass, in microseconds.
    pub last_scrub_us: u64,
    /// Gauge: admitted requests waiting in variant queues right now.
    pub queue_depth: u64,
    /// Gauge: requests inside an evaluate pass right now.
    pub in_flight: u64,
}

impl StatsSnapshot {
    /// Mean live requests per evaluate pass (0 before the first batch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// The load signal a fleet router selects replicas by: waiting plus
    /// evaluating requests.
    pub fn load(&self) -> u64 {
        self.queue_depth.saturating_add(self.in_flight)
    }

    /// Admitted requests that have been answered: completed, expired
    /// or failed. Equals `admitted` once the engine is quiescent.
    pub fn answered(&self) -> u64 {
        self.completed + self.expired + self.failed
    }

    /// Render the counters as a JSON object fragment (no surrounding
    /// braces, so callers can splice in extra fields).
    pub fn json_fields(&self) -> String {
        format!(
            "\"received\":{},\"admitted\":{},\"shed\":{},\"rejected\":{},\
             \"expired\":{},\"failed\":{},\"completed\":{},\"batches\":{},\"batched_requests\":{},\
             \"max_batch\":{},\"mean_batch\":{:.3},\"worker_restarts\":{},\
             \"scrub_passes\":{},\"rebuilds\":{},\"last_scrub_us\":{},\
             \"queue_depth\":{},\"in_flight\":{},\"load\":{}",
            self.received,
            self.admitted,
            self.shed,
            self.rejected,
            self.expired,
            self.failed,
            self.completed,
            self.batches,
            self.batched_requests,
            self.max_batch,
            self.mean_batch(),
            self.worker_restarts,
            self.scrub_passes,
            self.rebuilds,
            self.last_scrub_us,
            self.queue_depth,
            self.in_flight,
            self.load(),
        )
    }
}

/// Connection-tier counters for the epoll reactor, separate from the
/// engine's request counters: these describe sockets and the event
/// loop, not inference. Spliced into `GET /stats` as a `"connections"`
/// object (`null` on the in-process path, which has no sockets), so
/// every other JSON key keeps its position and meaning.
#[derive(Debug, Default)]
pub struct ConnStats {
    accepted: AtomicU64,
    open: AtomicU64,
    refused: AtomicU64,
    wakeups: AtomicU64,
    read_events: AtomicU64,
    write_events: AtomicU64,
    write_stalls: AtomicU64,
    timeout_closes: AtomicU64,
    responses: AtomicU64,
}

impl ConnStats {
    /// A connection was accepted and registered.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// A registered connection closed (any reason).
    pub fn on_close(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// An accepted socket was turned away (connection cap or drain).
    pub fn on_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// The event loop woke from `epoll_wait`.
    pub fn on_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// A readable-readiness event was handled.
    pub fn on_read_event(&self) {
        self.read_events.fetch_add(1, Ordering::Relaxed);
    }

    /// A writable-readiness event was handled.
    pub fn on_write_event(&self) {
        self.write_events.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was closed for making no write progress inside the
    /// stall deadline (the peer stopped reading its response).
    pub fn on_write_stall(&self) {
        self.write_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was answered `408` and closed by the idle/header
    /// deadline (slow-loris defense).
    pub fn on_timeout_close(&self) {
        self.timeout_closes.fetch_add(1, Ordering::Relaxed);
    }

    /// A response was serialized into a connection's write buffer.
    pub fn on_response(&self) {
        self.responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge: connections registered with the reactor right now.
    pub fn open_connections(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Read every counter.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            accepted_total: self.accepted.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            reactor_wakeups: self.wakeups.load(Ordering::Relaxed),
            read_events: self.read_events.load(Ordering::Relaxed),
            write_events: self.write_events.load(Ordering::Relaxed),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            timeout_closes: self.timeout_closes.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the connection-tier counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Connections accepted over the reactor's lifetime.
    pub accepted_total: u64,
    /// Gauge: connections registered right now.
    pub open_connections: u64,
    /// Accepted sockets turned away (connection cap, drain).
    pub refused: u64,
    /// `epoll_wait` returns.
    pub reactor_wakeups: u64,
    /// Readable-readiness events handled.
    pub read_events: u64,
    /// Writable-readiness events handled.
    pub write_events: u64,
    /// Connections closed for stalled writes (peer stopped reading).
    pub write_stalls: u64,
    /// Connections answered `408` and closed by idle/header deadlines.
    pub timeout_closes: u64,
    /// Responses serialized.
    pub responses: u64,
}

impl ConnSnapshot {
    /// Render as a complete JSON object (the `"connections"` value in
    /// `GET /stats`).
    pub fn json_object(&self) -> String {
        format!(
            "{{\"open_connections\":{},\"accepted_total\":{},\"refused\":{},\
             \"reactor_wakeups\":{},\"read_events\":{},\"write_events\":{},\
             \"write_stalls\":{},\"timeout_closes\":{},\"responses\":{}}}",
            self.open_connections,
            self.accepted_total,
            self.refused,
            self.reactor_wakeups,
            self.read_events,
            self.write_events,
            self.write_stalls,
            self.timeout_closes,
            self.responses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ServeStats::default();
        for _ in 0..3 {
            s.on_received();
            s.on_admitted();
        }
        s.on_shed();
        s.on_rejected();
        s.on_failed(2);
        s.on_batch(2);
        s.on_batch(4);
        s.on_completed();
        s.on_worker_restart();
        s.on_scrub_pass(850);
        s.on_scrub_pass(1234);
        s.on_rebuild();
        let snap = s.snapshot();
        assert_eq!(snap.received, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.failed, 2);
        assert_eq!(snap.answered(), 3);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batched_requests, 6);
        assert_eq!(snap.max_batch, 4);
        assert_eq!(snap.mean_batch(), 3.0);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.scrub_passes, 2);
        assert_eq!(snap.rebuilds, 1);
        assert_eq!(snap.last_scrub_us, 1234, "last scrub wins");
        let json = snap.json_fields();
        assert!(json.contains("\"shed\":1"));
        assert!(json.contains("\"rejected\":1"));
        assert!(json.contains("\"failed\":2"));
        assert!(json.contains("\"mean_batch\":3.000"));
        assert!(json.contains("\"worker_restarts\":1"));
        assert!(json.contains("\"scrub_passes\":2"));
        assert!(json.contains("\"rebuilds\":1"));
        assert!(json.contains("\"last_scrub_us\":1234"));
    }

    #[test]
    fn conn_counters_track_gauge_and_totals() {
        let c = ConnStats::default();
        c.on_accept();
        c.on_accept();
        c.on_close();
        c.on_refused();
        c.on_wakeup();
        c.on_read_event();
        c.on_write_event();
        c.on_write_stall();
        c.on_timeout_close();
        c.on_response();
        assert_eq!(c.open_connections(), 1, "open is a gauge");
        let snap = c.snapshot();
        assert_eq!(snap.accepted_total, 2);
        assert_eq!(snap.open_connections, 1);
        assert_eq!(snap.refused, 1);
        assert_eq!(snap.write_stalls, 1);
        assert_eq!(snap.timeout_closes, 1);
        let json = snap.json_object();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"open_connections\":1"));
        assert!(json.contains("\"accepted_total\":2"));
        assert!(json.contains("\"reactor_wakeups\":1"));
        assert!(json.contains("\"write_stalls\":1"));
    }

    #[test]
    fn load_gauges_are_set_not_accumulated() {
        let s = ServeStats::default();
        assert_eq!(s.load(), 0);
        s.set_load(3, 2);
        assert_eq!(s.load(), 5);
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.in_flight, 2);
        assert_eq!(snap.load(), 5);
        // Gauges overwrite — a re-publish replaces, never adds.
        s.set_load(1, 0);
        assert_eq!(s.load(), 1);
        let json = s.snapshot().json_fields();
        assert!(json.contains("\"queue_depth\":1"));
        assert!(json.contains("\"in_flight\":0"));
        assert!(json.contains("\"load\":1"));
    }
}
