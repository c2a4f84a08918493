//! The epoll reactor: a single-threaded, non-blocking connection tier
//! that multiplexes every socket of a serving endpoint over one
//! [`Epoll`] instance, so an idle connection costs a slab slot rather
//! than a thread.
//!
//! ## Architecture
//!
//! One reactor thread owns the listener, every connection, a
//! [`TimerWheel`] of per-connection deadlines, and the receiving half
//! of a shared tagged-reply channel. Compute stays on the engine's
//! compute workers (micro-batching, `catch_unwind` supervision, admission
//! control are untouched behind the [`Dispatch`] seam) — blocking
//! matmuls have no place on an event loop, and the engine's bounded
//! queues already give the backpressure story. The two tiers meet at
//! three points:
//!
//! * **Request**: a parsed request is admitted through
//!   [`Dispatch::begin_infer`] with a tag naming the request (see
//!   below). Admission errors answer immediately; an admitted request
//!   parks the connection with the dispatch's per-request state.
//! * **Reply**: a compute worker sends `(tag, result)` on the shared
//!   channel and rings the reactor's eventfd [`Waker`]
//!   ([`Engine::enqueue_waking`](crate::batcher::Engine::enqueue_waking)).
//!   The loop wakes, drains the channel, matches each tag back to its
//!   live request and hands the reply to [`Dispatch::on_reply`]. A
//!   [`Progress::Done`] answer is serialized and writing resumes;
//!   [`Progress::Pending`] keeps the request parked.
//! * **Timer**: a pending request may ask to be woken at an instant
//!   (a fleet router's hedge or overall deadline). The reactor arms it
//!   on the same wheel as the connection deadlines and calls
//!   [`Dispatch::on_timer`] when it fires — never early, at most one
//!   10 ms wheel tick late.
//!
//! ## The `Dispatch` contract
//!
//! * `begin_infer` receives a tag whose low 8 bits are zero. Everything
//!   it launches answers on `reply` as `(tag + k, result)` for some
//!   attempt index `k < 256`, followed by `waker.wake()`.
//! * Tags carry the connection's slab slot and generation **and** a
//!   per-connection request sequence, so a reply that outlives its
//!   request — a hedge loser answering after the connection sent its
//!   next pipelined request, or a reply for a closed-and-recycled slot
//!   — is dropped, never handed to the wrong request.
//! * Every step runs on the reactor thread, so a step must not block.
//!   A request is answered exactly once: by its admission error, or by
//!   the step that returns [`Progress::Done`]. A connection that closes
//!   with a request still pending hands the state to
//!   [`Dispatch::abandon`] instead.
//!
//! ## Connection state machine
//!
//! ```text
//!   Reading ──parse──▶ Dispatched ──Done──▶ (write) ──flushed──▶ Reading
//!      │                 │    ▲                │
//!      │                 └────┘ reply/timer:   └── stalled write → close
//!      │                        Pending
//!      └── idle/header deadline → 408 + close
//! ```
//!
//! While a response is pending or buffered, the connection's read
//! interest is dropped: pipelined requests wait in the parser/kernel
//! buffers and buffering stays bounded at roughly one response. Writes
//! that hit `EWOULDBLOCK` keep a position and continue on `EPOLLOUT`; a
//! peer that stops reading trips the write-stall deadline and is
//! closed, never blocking a compute worker or the loop.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batcher::{ServeError, TaggedReply};
use crate::http::{
    decode_f32_body, encode_f32_body, violation_status, write_response, write_response_with,
    Request, RequestParser,
};
use crate::stats::ConnStats;
use crate::sys::{
    self, Epoll, EpollEvent, Interest, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::timer::{Fired, TimerWheel};

/// Token for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the reply waker.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Bytes read per readiness event (level-triggered epoll re-arms when
/// more is pending, so one bounded read per event keeps every
/// connection's buffer growth fair).
const READ_CHUNK: usize = 16 * 1024;

/// Low tag bits a [`Dispatch`] may use to number the attempts of one
/// request; the bits above name the request itself.
const ATTEMPT_BITS: u32 = 8;

/// What a pending request's dispatch step decided.
#[derive(Debug)]
pub enum Progress {
    /// The request is answered.
    Done(Result<Vec<f32>, ServeError>),
    /// Still waiting: for the next reply, or — when an instant is given
    /// — at the latest until then, when [`Dispatch::on_timer`] runs.
    Pending(Option<Instant>),
}

/// What the reactor serves: the seam both the single-engine server and
/// the fleet front end plug into. See the module docs for the contract.
pub trait Dispatch: Send + Sync + 'static {
    /// Per-request state the reactor keeps while a request is pending
    /// and hands back with each of its replies and timers.
    type Pending: Send + 'static;

    /// The body of `GET /stats`, with the reactor's connection-tier
    /// gauges pre-rendered as a JSON object for splicing.
    fn stats_json(&self, connections: &str) -> String;

    /// Begin one inference. `Ok` returns the request's pending state
    /// and the instant (if any) at which [`on_timer`](Self::on_timer)
    /// must run; replies then arrive on `reply` tagged `tag + k`
    /// (module docs). `Err` means the request was answered at admission
    /// and nothing is pending.
    ///
    /// # Errors
    ///
    /// Admission-time [`ServeError`]s (unknown model, bad width, shed,
    /// shutdown) — mapped straight onto an HTTP response.
    fn begin_infer(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Option<Duration>,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
        waker: &Arc<Waker>,
    ) -> Result<(Self::Pending, Option<Instant>), ServeError>;

    /// One reply for a pending request arrived.
    fn on_reply(
        &self,
        pending: &mut Self::Pending,
        tag: u64,
        result: Result<Vec<f32>, ServeError>,
    ) -> Progress;

    /// The instant a pending request asked for has passed. The default
    /// serves dispatches that never ask for one.
    fn on_timer(&self, _pending: &mut Self::Pending, _now: Instant) -> Progress {
        Progress::Pending(None)
    }

    /// The request's connection closed before it was answered.
    fn abandon(&self, _pending: Self::Pending) {}
}

/// Deadlines and limits for the connection tier.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Close a connection idle between requests this long.
    pub idle_timeout: Duration,
    /// A connection sitting mid-request (slow-loris: unfinished head or
    /// body) this long after its first byte is answered `408` and
    /// closed. Measured from request start — dribbling bytes does not
    /// extend it.
    pub header_timeout: Duration,
    /// A buffered response making zero write progress for this long
    /// (peer stopped reading) closes the connection.
    pub write_timeout: Duration,
    /// Maximum simultaneously open connections; excess accepts are
    /// closed immediately.
    pub max_connections: usize,
    /// At shutdown, how long to wait for in-flight requests to answer
    /// and flush before the loop exits anyway.
    pub drain_timeout: Duration,
    /// Shrink each accepted socket's kernel send buffer (`SO_SNDBUF`)
    /// to this many bytes — test plumbing for write-backpressure
    /// scenarios. `None` (the default) leaves the kernel's sizing.
    pub send_buffer: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            idle_timeout: Duration::from_secs(60),
            header_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_connections: 4096,
            drain_timeout: Duration::from_secs(5),
            send_buffer: None,
        }
    }
}

/// A running reactor: the handle the public `Server` types wrap.
#[derive(Debug)]
pub struct ReactorHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    conn_stats: Arc<ConnStats>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl ReactorHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The reactor's connection-tier counters.
    pub fn conn_stats(&self) -> &Arc<ConnStats> {
        &self.conn_stats
    }

    /// Stop accepting, drain in-flight connections (bounded by
    /// [`ReactorConfig::drain_timeout`]), and join the loop thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if let Some(handle) = self.thread.lock().expect("reactor handle poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and start the event loop on its own thread.
///
/// # Errors
///
/// Propagates bind/epoll/eventfd setup failures.
pub fn spawn<D: Dispatch>(
    addr: &str,
    dispatch: Arc<D>,
    cfg: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let epoll = Epoll::new()?;
    let waker = Arc::new(Waker::new()?);
    epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    epoll.add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)?;
    let stop = Arc::new(AtomicBool::new(false));
    let conn_stats = Arc::new(ConnStats::default());
    let (reply_tx, reply_rx) = mpsc::channel();
    let reactor = Reactor {
        epoll,
        listener,
        dispatch,
        cfg,
        stop: Arc::clone(&stop),
        waker: Arc::clone(&waker),
        stats: Arc::clone(&conn_stats),
        reply_tx,
        reply_rx,
        conns: Slab::new(),
        timers: TimerWheel::new(Instant::now()),
        draining: None,
    };
    let thread = std::thread::Builder::new()
        .name("af-serve:reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        addr,
        stop,
        waker,
        conn_stats,
        thread: Mutex::new(Some(thread)),
    })
}

// ---------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Idle between requests too long → 408 + close.
    Idle,
    /// Sitting mid-request too long (slow-loris) → 408 + close.
    Header,
    /// Buffered response making no write progress → close.
    Write,
    /// The pending request's dispatch asked to be woken.
    Dispatch,
}

#[derive(Debug)]
struct Conn<P> {
    stream: TcpStream,
    gen: u64,
    parser: RequestParser,
    /// Requests admitted on this connection so far; the latest one's
    /// number rides in its reply tags.
    seq: u64,
    /// The admitted request's dispatch state: `Some` while a request is
    /// pending (the connection is "dispatched"), `None` while reading.
    pending: Option<P>,
    write_buf: Vec<u8>,
    write_pos: usize,
    interest: Interest,
    close_after_write: bool,
    read_eof: bool,
    /// When the current partial request started (anchors the header
    /// deadline so dribbling bytes cannot extend it).
    request_start: Option<Instant>,
    /// Generation of the currently-armed timer; fired entries with any
    /// other generation are stale (lazy cancellation).
    timer_gen: u64,
    timer_kind: Option<TimerKind>,
    /// `write_pos` when the write-stall timer was armed: equal on fire
    /// means zero progress.
    stall_pos: usize,
}

impl<P> Conn<P> {
    /// Lazily cancel the armed timer: its fire no longer matches.
    fn cancel_timer(&mut self) {
        self.timer_gen += 1;
        self.timer_kind = None;
    }

    fn new(stream: TcpStream, gen: u64) -> Conn<P> {
        Conn {
            stream,
            gen,
            parser: RequestParser::new(),
            seq: 0,
            pending: None,
            write_buf: Vec::new(),
            write_pos: 0,
            interest: Interest::READ,
            close_after_write: false,
            read_eof: false,
            request_start: None,
            timer_gen: 0,
            timer_kind: None,
            stall_pos: 0,
        }
    }
}

/// A generation-tagged slab: tokens are `gen << 32 | index`, so a
/// readiness event or timer that outlives its connection can never
/// touch the slot's next tenant.
#[derive(Debug)]
struct Slab<P> {
    slots: Vec<Option<Conn<P>>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
}

fn token_of(idx: usize, gen: u64) -> u64 {
    (gen << 32) | idx as u64
}

fn split_token(token: u64) -> (usize, u64) {
    ((token & 0xFFFF_FFFF) as usize, token >> 32)
}

/// The tag of a connection's `seq`-th request:
/// `idx:24 | gen:16 | seq:16 | attempt:ATTEMPT_BITS`, the attempt bits
/// zero. A reply names its slot, the slot's tenant, and which of that
/// tenant's requests it answers.
fn request_tag(idx: usize, gen: u64, seq: u64) -> u64 {
    ((idx as u64) << 40) | ((gen & 0xFFFF) << 24) | ((seq & 0xFFFF) << ATTEMPT_BITS)
}

impl<P> Slab<P> {
    fn new() -> Slab<P> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 1,
        }
    }

    fn insert(&mut self, stream: TcpStream) -> (usize, u64) {
        let gen = self.next_gen & 0xFFFF_FFFF;
        self.next_gen = self.next_gen.wrapping_add(1);
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(Conn::new(stream, gen));
                (idx, gen)
            }
            None => {
                self.slots.push(Some(Conn::new(stream, gen)));
                (self.slots.len() - 1, gen)
            }
        }
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut Conn<P>> {
        self.slots.get_mut(idx)?.as_mut()
    }

    fn remove(&mut self, idx: usize) -> Option<Conn<P>> {
        let conn = self.slots.get_mut(idx)?.take()?;
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn live_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

struct Reactor<D: Dispatch> {
    epoll: Epoll,
    listener: TcpListener,
    dispatch: Arc<D>,
    cfg: ReactorConfig,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    stats: Arc<ConnStats>,
    reply_tx: mpsc::Sender<TaggedReply>,
    reply_rx: mpsc::Receiver<TaggedReply>,
    conns: Slab<D::Pending>,
    timers: TimerWheel,
    /// `Some(deadline)` once shutdown began: no new accepts or
    /// requests, existing responses flush until the deadline.
    draining: Option<Instant>,
}

/// What the per-connection pump decided to do next.
enum Next {
    /// Close now.
    Close,
    /// Wait for readiness with this interest (timers re-armed to match).
    Park(Interest),
    /// A complete request came off the parser.
    Request(Box<Request>),
}

impl<D: Dispatch> Reactor<D> {
    fn run(mut self) {
        let mut events: Vec<EpollEvent> = Vec::with_capacity(256);
        let mut fired: Vec<Fired> = Vec::new();
        loop {
            let now = Instant::now();
            if self.stop.load(Ordering::SeqCst) && self.draining.is_none() {
                self.begin_drain(now);
            }
            if let Some(deadline) = self.draining {
                if self.conns.len() == 0 || now >= deadline {
                    break;
                }
            }
            let mut timeout = self.timers.next_timeout(now);
            if let Some(deadline) = self.draining {
                let until = deadline.saturating_duration_since(now);
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            self.stats.on_wakeup();
            // Copy out of the (packed) event array before dispatching.
            let ready: Vec<(u64, u32)> = events.iter().map(|ev| (ev.token, ev.events)).collect();
            for (token, bits) in ready {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    token => self.conn_event(token, bits),
                }
            }
            // Replies may arrive without a wake landing yet (the worker
            // sends, then wakes); draining every iteration costs one
            // failed try_recv and closes the race.
            self.drain_replies();
            fired.clear();
            self.timers.expire(Instant::now(), &mut fired);
            let due = std::mem::take(&mut fired);
            for f in &due {
                self.timer_fired(*f);
            }
            fired = due;
        }
        // Teardown: close every remaining connection so the open gauge
        // ends at zero and peers see EOF rather than a silent hang.
        for idx in self.conns.live_indices() {
            self.close_conn(idx);
        }
    }

    /// Shutdown began: deregister the listener, close idle connections,
    /// and give the rest one drain window to answer and flush.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = Some(now + self.cfg.drain_timeout);
        self.epoll.delete(self.listener.as_raw_fd());
        for idx in self.conns.live_indices() {
            let idle = self
                .conns
                .get_mut(idx)
                .is_some_and(|c| c.pending.is_none() && c.write_buf.is_empty());
            if idle {
                self.close_conn(idx);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining.is_some() || self.conns.len() >= self.cfg.max_connections {
                        self.stats.on_refused();
                        continue; // dropping the stream closes it
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.on_refused();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.cfg.send_buffer {
                        let _ = sys::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    let fd = stream.as_raw_fd();
                    let (idx, gen) = self.conns.insert(stream);
                    if self
                        .epoll
                        .add(fd, token_of(idx, gen), Interest::READ)
                        .is_err()
                    {
                        self.conns.remove(idx);
                        self.stats.on_refused();
                        continue;
                    }
                    self.stats.on_accept();
                    self.arm_timer(idx, TimerKind::Idle, Instant::now() + self.cfg.idle_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept errors (ECONNABORTED);
                // the listener itself stays registered.
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let (idx, gen) = split_token(token);
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.stats.on_read_event();
            self.read_ready(idx);
        } else if bits & EPOLLOUT != 0 {
            self.stats.on_write_event();
            self.advance(idx);
        }
    }

    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.read_eof = true,
                Ok(n) => conn.parser.feed(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
            // Anchor the header deadline at the first byte of a request.
            if conn.parser.mid_request() && conn.request_start.is_none() {
                conn.request_start = Some(Instant::now());
            }
        }
        self.advance(idx);
    }

    /// The central pump: flush pending writes, then either close, park
    /// for readiness, or take the next request off the parser — looping
    /// until the connection blocks or closes.
    fn advance(&mut self, idx: usize) {
        loop {
            let next = {
                let draining = self.draining.is_some();
                let Some(conn) = self.conns.get_mut(idx) else {
                    return;
                };
                pump(conn, draining)
            };
            match next {
                Next::Close => {
                    self.close_conn(idx);
                    return;
                }
                Next::Park(interest) => {
                    self.park(idx, interest);
                    return;
                }
                Next::Request(request) => {
                    self.handle_request(idx, &request);
                    // Loop: the response may flush instantly and more
                    // pipelined requests may already be buffered.
                }
            }
        }
    }

    /// Route one request: the server's one routing table. Every route
    /// answers on the connection it arrived on, in arrival order.
    fn handle_request(&mut self, idx: usize, request: &Request) {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => self.respond(idx, 200, "text/plain", b"ok"),
            ("GET", "/stats") => {
                let connections = self.stats.snapshot().json_object();
                let body = self.dispatch.stats_json(&connections);
                self.respond(idx, 200, "application/json", body.as_bytes());
            }
            ("POST", path) if path.starts_with("/v1/infer/") => {
                let variant = path["/v1/infer/".len()..].to_string();
                self.infer_request(idx, request, &variant);
            }
            (_, "/healthz" | "/stats") | ("POST", _) => {
                self.respond(idx, 405, "text/plain", b"method not allowed");
            }
            _ => self.respond(idx, 404, "text/plain", b"no such route"),
        }
    }

    fn infer_request(&mut self, idx: usize, request: &Request, variant: &str) {
        let Some(input) = decode_f32_body(&request.body) else {
            self.respond(idx, 400, "text/plain", b"malformed f32 body");
            return;
        };
        let deadline = match request.header("x-deadline-ms") {
            Some(raw) => match raw.parse::<u64>() {
                Ok(ms) => Some(Duration::from_millis(ms)),
                Err(_) => {
                    self.respond(idx, 400, "text/plain", b"malformed x-deadline-ms");
                    return;
                }
            },
            None => None,
        };
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        conn.seq += 1;
        let tag = request_tag(idx, conn.gen, conn.seq);
        match self
            .dispatch
            .begin_infer(variant, input, deadline, tag, &self.reply_tx, &self.waker)
        {
            Ok((pending, wake_at)) => {
                conn.pending = Some(pending);
                if let Some(at) = wake_at {
                    self.arm_timer(idx, TimerKind::Dispatch, at);
                }
            }
            Err(e) => {
                self.respond_error(idx, &e);
            }
        }
    }

    /// Act on a pending request's step: answer it and resume the
    /// connection, or keep waiting with the wake-up instant re-armed.
    fn resolve(&mut self, idx: usize, progress: Progress) {
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        match progress {
            Progress::Done(result) => {
                conn.pending = None;
                conn.cancel_timer();
                match result {
                    Ok(output) => {
                        self.respond(
                            idx,
                            200,
                            "application/octet-stream",
                            &encode_f32_body(&output),
                        );
                    }
                    Err(e) => {
                        self.respond_error(idx, &e);
                    }
                }
                self.advance(idx);
            }
            Progress::Pending(Some(at)) => self.arm_timer(idx, TimerKind::Dispatch, at),
            Progress::Pending(None) => conn.cancel_timer(),
        }
    }

    /// Serialize a response into the connection's write buffer.
    fn respond(&mut self, idx: usize, status: u16, content_type: &str, body: &[u8]) {
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        write_response(&mut conn.write_buf, status, content_type, body)
            .expect("writing to a Vec cannot fail");
        self.stats.on_response();
    }

    /// Serialize a [`ServeError`] response, carrying `Retry-After` on
    /// the statuses that take one (`429` shed, `503` shutdown or
    /// breaker-open degradation), so a client knows when a retry can
    /// succeed.
    fn respond_error(&mut self, idx: usize, e: &ServeError) {
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        let retry_after = e.retry_after_secs().map(|s| s.to_string());
        let extra: Vec<(&str, &str)> = retry_after
            .as_deref()
            .map(|v| ("retry-after", v))
            .into_iter()
            .collect();
        write_response_with(
            &mut conn.write_buf,
            e.http_status(),
            "text/plain",
            &extra,
            e.to_string().as_bytes(),
        )
        .expect("writing to a Vec cannot fail");
        self.stats.on_response();
    }

    /// Apply `interest` to epoll and re-arm the deadline that matches
    /// the parked state.
    fn park(&mut self, idx: usize, interest: Interest) {
        let now = Instant::now();
        let (fd, token, changed, timer) = {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            let changed = conn.interest != interest;
            conn.interest = interest;
            let timer = if interest.writable {
                Some((TimerKind::Write, now + self.cfg.write_timeout))
            } else if interest.readable {
                if conn.parser.mid_request() {
                    let start = *conn.request_start.get_or_insert(now);
                    Some((TimerKind::Header, start + self.cfg.header_timeout))
                } else {
                    conn.request_start = None;
                    Some((TimerKind::Idle, now + self.cfg.idle_timeout))
                }
            } else {
                // Dispatched: only the dispatch's own wake-up (if any)
                // stays armed; any other timer is cancelled (lazily).
                if conn.timer_kind != Some(TimerKind::Dispatch) {
                    conn.cancel_timer();
                }
                None
            };
            if interest.writable {
                conn.stall_pos = conn.write_pos;
            }
            (
                conn.stream.as_raw_fd(),
                token_of(idx, conn.gen),
                changed,
                timer,
            )
        };
        if changed && self.epoll.modify(fd, token, interest).is_err() {
            self.close_conn(idx);
            return;
        }
        if let Some((kind, deadline)) = timer {
            self.arm_timer(idx, kind, deadline);
        }
    }

    fn arm_timer(&mut self, idx: usize, kind: TimerKind, deadline: Instant) {
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        conn.timer_gen += 1;
        conn.timer_kind = Some(kind);
        let token = token_of(idx, conn.gen);
        let timer_gen = conn.timer_gen;
        self.timers.insert(deadline, token, timer_gen);
    }

    fn timer_fired(&mut self, fired: Fired) {
        let (idx, gen) = split_token(fired.token);
        let kind = {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            if conn.gen != gen || conn.timer_gen != fired.timer_gen {
                return; // stale (lazily cancelled or re-armed)
            }
            conn.timer_kind
        };
        match kind {
            None => {}
            Some(TimerKind::Idle | TimerKind::Header) => {
                // Slow-loris / idle: answer 408 and close once flushed.
                self.stats.on_timeout_close();
                self.respond(idx, 408, "text/plain", b"request timeout");
                if let Some(conn) = self.conns.get_mut(idx) {
                    conn.close_after_write = true;
                    conn.timer_kind = None;
                }
                self.advance(idx);
            }
            Some(TimerKind::Write) => {
                let made_progress = {
                    let Some(conn) = self.conns.get_mut(idx) else {
                        return;
                    };
                    conn.write_pos > conn.stall_pos
                };
                if made_progress {
                    // The peer is reading, just slowly: restart the
                    // stall window from the current position.
                    if let Some(conn) = self.conns.get_mut(idx) {
                        conn.stall_pos = conn.write_pos;
                    }
                    self.arm_timer(
                        idx,
                        TimerKind::Write,
                        Instant::now() + self.cfg.write_timeout,
                    );
                } else {
                    self.stats.on_write_stall();
                    self.close_conn(idx);
                }
            }
            Some(TimerKind::Dispatch) => {
                let Some(conn) = self.conns.get_mut(idx) else {
                    return;
                };
                conn.timer_kind = None;
                let Some(pending) = conn.pending.as_mut() else {
                    return;
                };
                let progress = self.dispatch.on_timer(pending, Instant::now());
                self.resolve(idx, progress);
            }
        }
    }

    fn drain_replies(&mut self) {
        while let Ok((tag, result)) = self.reply_rx.try_recv() {
            let idx = (tag >> 40) as usize;
            let Some(conn) = self.conns.get_mut(idx) else {
                continue;
            };
            // A reply for another request — the connection died, or it
            // moved on to its next request while a hedge loser ran.
            if tag >> ATTEMPT_BITS != request_tag(idx, conn.gen, conn.seq) >> ATTEMPT_BITS {
                continue;
            }
            let Some(pending) = conn.pending.as_mut() else {
                continue;
            };
            let progress = self.dispatch.on_reply(pending, tag, result);
            self.resolve(idx, progress);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns.remove(idx) {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.stats.on_close();
            if let Some(pending) = conn.pending {
                self.dispatch.abandon(pending);
            }
            // the stream (and its fd) drops here
        }
    }
}

/// One pump step over a connection: returns what the reactor should do.
/// Free function so the borrow of the connection is clearly scoped.
fn pump<P>(conn: &mut Conn<P>, draining: bool) -> Next {
    // 1) Flush buffered response bytes.
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Next::Close,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Next::Park(Interest {
                    readable: false,
                    writable: true,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Next::Close,
        }
    }
    if !conn.write_buf.is_empty() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    if conn.close_after_write {
        return Next::Close;
    }
    // 2) A dispatched request parks the connection with no interests:
    //    no reads (bounded buffering), the reply waker resumes us.
    if conn.pending.is_some() {
        return Next::Park(Interest::NONE);
    }
    // 3) During drain, finish the in-flight exchange and stop there.
    if draining {
        return Next::Close;
    }
    // 4) Take the next request off the parser.
    match conn.parser.next_request() {
        Ok(Some(request)) => {
            conn.request_start = None;
            Next::Request(Box::new(request))
        }
        Ok(None) => {
            if conn.read_eof {
                // Clean EOF at a boundary, or a request cut short: the
                // peer can send nothing more, so no request can complete.
                Next::Close
            } else {
                Next::Park(Interest::READ)
            }
        }
        Err(e) => {
            // Protocol violation: answer its status (413 for oversized,
            // else 400), then close — the parser cannot find the next
            // request boundary in a stream it failed to frame.
            let status = violation_status(&e).unwrap_or(400);
            let _ = write_response(
                &mut conn.write_buf,
                status,
                "text/plain",
                e.to_string().as_bytes(),
            );
            conn.close_after_write = true;
            // Loop back through the flush.
            pump(conn, draining)
        }
    }
}
