//! A persistent-connection client for the serving endpoint — used by
//! the e2e tests and the `serve_load` harness, and small enough to
//! embed anywhere.
//!
//! [`Client::infer_with_retry`] adds a bounded retry loop with
//! exponential backoff and deterministic jitter for the transient
//! failure modes of a self-healing server: load shed (`429`), shutdown
//! or restart (`503`), and a connection dropped mid-exchange (e.g. by a
//! restarting server). Inference is idempotent, so replaying
//! the request is always safe; non-transient errors (`400`, `404`,
//! `500`, `504`) surface immediately. Every attempt — including its
//! backoff sleep — is budgeted against the caller's single end-to-end
//! deadline.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use af_resilience::SplitMix64;

use crate::http::{decode_f32_body, encode_f32_body, read_response, Response};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// A connect/read/write deadline expired — the server is hung or
    /// frozen, not answering. Transient: the request is idempotent and
    /// another attempt (possibly against another replica) may succeed.
    TimedOut,
    /// The server answered with a non-200 status.
    Http {
        /// The HTTP status code.
        status: u16,
        /// The server's plain-text error body.
        message: String,
        /// The server's `Retry-After` hint, if the response carried
        /// one — [`Client::infer_with_retry`] treats it as a backoff
        /// floor.
        retry_after: Option<Duration>,
    },
    /// The server answered 200 but the body did not decode.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::TimedOut => write!(f, "transport timeout"),
            ClientError::Http {
                status, message, ..
            } => write!(f, "http {status}: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        // A socket-deadline expiry surfaces as `WouldBlock` (the
        // timeout plumbing is `SO_RCVTIMEO`/`SO_SNDTIMEO`) or
        // `TimedOut` depending on the syscall; both mean "the server
        // did not answer in time", which retry policy must treat
        // differently from a torn connection.
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            ClientError::TimedOut
        } else {
            ClientError::Io(e)
        }
    }
}

/// Bounded-retry policy for [`Client::infer_with_retry`]: exponential
/// backoff with deterministic jitter, always capped by the caller's
/// end-to-end deadline.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` disables retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep (before jitter).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream — give concurrent
    /// clients distinct seeds so their retries decorrelate.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry number `attempt` (1-based):
    /// `min(max_backoff, base_backoff · 2^(attempt−1))`, scaled by a
    /// jitter factor drawn uniformly from `[0.5, 1.0)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self.base_backoff.saturating_mul(
            1u32.checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u32::MAX),
        );
        let capped = doubled.min(self.max_backoff);
        let mut rng = SplitMix64::for_element(self.jitter_seed, 0x5E77_1E5B, u64::from(attempt));
        capped.mul_f64(0.5 + 0.5 * rng.next_f64())
    }
}

/// Whether an error is a transient condition worth replaying an
/// idempotent request over: a shed (`429`), a shutting-down or
/// restarting server (`503`), a connection that died mid-exchange, or
/// a hung server caught by a socket deadline.
fn is_transient(err: &ClientError) -> bool {
    match err {
        ClientError::Http { status, .. } => matches!(status, 429 | 503),
        ClientError::TimedOut => true,
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        ),
        ClientError::Protocol(_) => false,
    }
}

/// Socket deadlines for a [`Client`] connection. Every phase has a
/// bound by default so a hung or chaos-frozen server can never wedge a
/// caller; `None` disables that phase's deadline.
#[derive(Debug, Clone, Copy)]
pub struct ClientTimeouts {
    /// Bound on establishing the TCP connection.
    pub connect: Option<Duration>,
    /// Bound on each blocking read (`SO_RCVTIMEO`).
    pub read: Option<Duration>,
    /// Bound on each blocking write (`SO_SNDTIMEO`).
    pub write: Option<Duration>,
}

impl Default for ClientTimeouts {
    fn default() -> ClientTimeouts {
        ClientTimeouts {
            connect: Some(Duration::from_secs(5)),
            read: Some(Duration::from_secs(30)),
            write: Some(Duration::from_secs(10)),
        }
    }
}

/// Configures and opens a [`Client`] — `Client::builder(addr)`, adjust
/// the deadlines, then [`connect`](ClientBuilder::connect).
#[derive(Debug, Clone, Copy)]
pub struct ClientBuilder {
    addr: SocketAddr,
    timeouts: ClientTimeouts,
}

impl ClientBuilder {
    /// Bound on establishing the TCP connection (`None` = no bound).
    pub fn connect_timeout(mut self, timeout: Option<Duration>) -> ClientBuilder {
        self.timeouts.connect = timeout;
        self
    }

    /// Bound on each blocking read (`None` = no bound).
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> ClientBuilder {
        self.timeouts.read = timeout;
        self
    }

    /// Bound on each blocking write (`None` = no bound).
    pub fn write_timeout(mut self, timeout: Option<Duration>) -> ClientBuilder {
        self.timeouts.write = timeout;
        self
    }

    /// Open the connection under the configured deadlines.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established,
    /// [`ClientError::TimedOut`] if the connect deadline expires.
    pub fn connect(self) -> Result<Client, ClientError> {
        let (reader, writer) = Client::open(self.addr, self.timeouts)?;
        Ok(Client {
            addr: self.addr,
            timeouts: self.timeouts,
            reader,
            writer,
        })
    }
}

/// One keep-alive connection to a serving endpoint.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeouts: ClientTimeouts,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Open a persistent connection under the default
    /// [`ClientTimeouts`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established,
    /// [`ClientError::TimedOut`] if the connect deadline expires.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        Client::builder(addr).connect()
    }

    /// Start configuring a connection to `addr`.
    pub fn builder(addr: SocketAddr) -> ClientBuilder {
        ClientBuilder {
            addr,
            timeouts: ClientTimeouts::default(),
        }
    }

    /// The socket deadlines this connection runs under.
    pub fn timeouts(&self) -> ClientTimeouts {
        self.timeouts
    }

    fn open(
        addr: SocketAddr,
        timeouts: ClientTimeouts,
    ) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ClientError> {
        let stream = match timeouts.connect {
            Some(bound) => TcpStream::connect_timeout(&addr, bound)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok((reader, writer))
    }

    /// Drop the current connection and dial the endpoint again — the
    /// recovery step when the server closed the socket mid-exchange.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the new connection cannot be established.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = Self::open(self.addr, self.timeouts)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        extra_header: Option<(&str, &str)>,
        body: &[u8],
    ) -> Result<Response, ClientError> {
        write!(self.writer, "{method} {path} HTTP/1.1\r\n")?;
        if let Some((name, value)) = extra_header {
            write!(self.writer, "{name}: {value}\r\n")?;
        }
        write!(self.writer, "content-length: {}\r\n\r\n", body.len())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        Ok(read_response(&mut self.reader)?)
    }

    /// `GET /healthz`; `true` when the server answers `200`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure.
    pub fn healthz(&mut self) -> Result<bool, ClientError> {
        Ok(self.round_trip("GET", "/healthz", None, &[])?.status == 200)
    }

    /// `GET /stats` — the engine's counters as a JSON document.
    ///
    /// # Errors
    ///
    /// Transport failure, or a non-200 status.
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        let resp = self.round_trip("GET", "/stats", None, &[])?;
        if resp.status != 200 {
            return Err(ClientError::Http {
                status: resp.status,
                message: String::from_utf8_lossy(&resp.body).into_owned(),
                retry_after: resp.retry_after(),
            });
        }
        Ok(String::from_utf8_lossy(&resp.body).into_owned())
    }

    /// Infer under the server's default deadline.
    ///
    /// # Errors
    ///
    /// [`ClientError::Http`] carries the serving-layer status (404
    /// unknown variant, 400 bad input, 429 shed, 504 deadline).
    pub fn infer(&mut self, variant: &str, input: &[f32]) -> Result<Vec<f32>, ClientError> {
        self.infer_inner(variant, input, None)
    }

    /// Infer with an explicit deadline, in milliseconds.
    ///
    /// # Errors
    ///
    /// Same as [`Client::infer`].
    pub fn infer_with_deadline_ms(
        &mut self,
        variant: &str,
        input: &[f32],
        deadline_ms: u64,
    ) -> Result<Vec<f32>, ClientError> {
        self.infer_inner(variant, input, Some(deadline_ms))
    }

    /// Infer with bounded retry: transient failures (`429`, `503`, a
    /// connection dropped mid-exchange, or a socket-deadline timeout)
    /// are replayed with exponential backoff and jitter under `policy`,
    /// all within one end-to-end `deadline`. A server `Retry-After`
    /// hint acts as a floor under the jittered backoff. Each attempt
    /// tells the server only the *remaining* budget via
    /// `x-deadline-ms`. Returns the output and the number of attempts
    /// it took.
    ///
    /// # Errors
    ///
    /// The last error once attempts or deadline budget run out;
    /// non-transient errors (`400`, `404`, `500`, `504`) immediately.
    pub fn infer_with_retry(
        &mut self,
        variant: &str,
        input: &[f32],
        deadline: Duration,
        policy: &RetryPolicy,
    ) -> Result<(Vec<f32>, u32), ClientError> {
        let start = Instant::now();
        let mut attempt = 1u32;
        loop {
            let remaining = deadline.saturating_sub(start.elapsed());
            let remaining_ms = u64::try_from(remaining.as_millis())
                .unwrap_or(u64::MAX)
                .max(1);
            match self.infer_inner(variant, input, Some(remaining_ms)) {
                Ok(out) => return Ok((out, attempt)),
                Err(err) => {
                    let budget = deadline.saturating_sub(start.elapsed());
                    if !is_transient(&err) || attempt >= policy.max_attempts || budget.is_zero() {
                        return Err(err);
                    }
                    // A dead or hung transport needs a fresh connection
                    // before the replay; HTTP-level sheds keep the
                    // socket.
                    if matches!(err, ClientError::Io(_) | ClientError::TimedOut) {
                        self.reconnect()?;
                    }
                    let floor = match &err {
                        ClientError::Http {
                            retry_after: Some(hint),
                            ..
                        } => *hint,
                        _ => Duration::ZERO,
                    };
                    std::thread::sleep(policy.backoff(attempt).max(floor).min(budget));
                    attempt += 1;
                }
            }
        }
    }

    fn infer_inner(
        &mut self,
        variant: &str,
        input: &[f32],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<f32>, ClientError> {
        let path = format!("/v1/infer/{variant}");
        let deadline = deadline_ms.map(|ms| ms.to_string());
        let header = deadline.as_deref().map(|v| ("x-deadline-ms", v));
        let body = encode_f32_body(input);
        let resp = self.round_trip("POST", &path, header, &body)?;
        if resp.status != 200 {
            return Err(ClientError::Http {
                status: resp.status,
                message: String::from_utf8_lossy(&resp.body).into_owned(),
                retry_after: resp.retry_after(),
            });
        }
        decode_f32_body(&resp.body)
            .ok_or_else(|| ClientError::Protocol("undecodable f32 response body".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_under_the_cap_with_bounded_jitter() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            jitter_seed: 7,
        };
        for attempt in 1..=5 {
            let nominal = Duration::from_millis(10 * (1 << (attempt - 1))).min(policy.max_backoff);
            let got = policy.backoff(attempt);
            assert!(
                got >= nominal.mul_f64(0.5) && got < nominal,
                "attempt {attempt}: {got:?} outside [{:?}, {nominal:?})",
                nominal.mul_f64(0.5),
            );
            // Deterministic: the same attempt always jitters the same way.
            assert_eq!(got, policy.backoff(attempt));
        }
        // Distinct seeds decorrelate.
        let other = RetryPolicy {
            jitter_seed: 8,
            ..policy
        };
        assert_ne!(policy.backoff(3), other.backoff(3));
    }

    #[test]
    fn only_transient_failures_are_retried() {
        let http = |status| ClientError::Http {
            status,
            message: String::new(),
            retry_after: None,
        };
        assert!(is_transient(&http(429)));
        assert!(is_transient(&http(503)));
        for status in [400, 404, 500, 504] {
            assert!(!is_transient(&http(status)), "{status} must not retry");
        }
        assert!(is_transient(&ClientError::Io(io::Error::from(
            io::ErrorKind::ConnectionReset
        ))));
        assert!(is_transient(&ClientError::Io(io::Error::from(
            io::ErrorKind::UnexpectedEof
        ))));
        assert!(is_transient(&ClientError::TimedOut));
        assert!(!is_transient(&ClientError::Io(io::Error::from(
            io::ErrorKind::PermissionDenied
        ))));
        assert!(!is_transient(&ClientError::Protocol("x".to_string())));
    }

    #[test]
    fn socket_deadline_expiry_maps_to_the_timed_out_kind() {
        for kind in [io::ErrorKind::TimedOut, io::ErrorKind::WouldBlock] {
            assert!(matches!(
                ClientError::from(io::Error::from(kind)),
                ClientError::TimedOut
            ));
        }
        assert!(matches!(
            ClientError::from(io::Error::from(io::ErrorKind::ConnectionReset)),
            ClientError::Io(_)
        ));
    }

    #[test]
    fn builder_timeouts_default_bounded_and_stay_configurable() {
        let defaults = ClientTimeouts::default();
        assert!(defaults.connect.is_some() && defaults.read.is_some() && defaults.write.is_some());
        let builder = Client::builder("127.0.0.1:9".parse().unwrap())
            .connect_timeout(Some(Duration::from_millis(50)))
            .read_timeout(None)
            .write_timeout(Some(Duration::from_secs(1)));
        assert_eq!(builder.timeouts.connect, Some(Duration::from_millis(50)));
        assert_eq!(builder.timeouts.read, None);
        assert_eq!(builder.timeouts.write, Some(Duration::from_secs(1)));
        // Nothing listens on port 9: the bounded connect must fail
        // quickly rather than hang.
        let started = Instant::now();
        assert!(builder.connect().is_err());
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
