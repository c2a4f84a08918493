//! The TCP front end, in two generations sharing one routing table:
//!
//! * [`Server`] — the production endpoint: an epoll [`reactor`] thread
//!   ([`crate::reactor`]) multiplexes every connection non-blocking,
//!   parses incrementally, admits through the engine's tagged
//!   [`Engine::enqueue_waking`] seam, and resumes writes on readiness.
//!   One thread serves thousands of connections.
//! * [`ThreadedServer`] — the original thread-per-connection
//!   implementation, kept as the A/B baseline: benches and tests drive
//!   the same request stream through both and assert byte-identical
//!   responses (and measure where the per-connection threads fall over).
//!
//! Routes (identical on both):
//!
//! * `GET /healthz` — `200 ok` while the server is accepting.
//! * `GET /stats` — engine counters and per-variant detail as JSON (the
//!   reactor adds a `"connections"` object; the threaded server reports
//!   `"connections":null`).
//! * `POST /v1/infer/<variant>` — body is a length-delimited `f32`
//!   vector ([`crate::http::encode_f32_body`]); an optional
//!   `x-deadline-ms` header overrides the engine's default deadline.
//!   Errors map onto [`crate::ServeError::http_status`]: 404 unknown variant,
//!   400 bad width or framing, 429 shed, 504 deadline, 503 shutdown,
//!   500 worker fault. Protocol violations answer before the engine is
//!   involved: missing or garbage `Content-Length` is a 400, one
//!   exceeding [`crate::http::MAX_BODY`] is a 413. The reactor adds 408
//!   for idle/slow-loris deadline closes, which the blocking server
//!   (with no connection deadlines) never sends.

use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batcher::{Engine, ServeError, TaggedReply};
use crate::http::{
    decode_f32_body, encode_f32_body, read_request, violation_status, write_response,
    write_response_with, Request,
};
use crate::reactor::{self, Dispatch, Progress, ReactorConfig, ReactorHandle};
use crate::stats::ConnStats;
use crate::sys::Waker;

/// How long a [`ThreadedServer`] connection handler blocks in `read`
/// before re-checking for shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------
// Reactor-backed server (the default front end)
// ---------------------------------------------------------------------

/// [`Dispatch`] for a single [`Engine`]: requests admit through the
/// tagged waking enqueue, missing per-request deadlines fall back to
/// the engine default, and the one reply is the answer — no state, no
/// timer.
#[derive(Debug)]
struct EngineDispatch {
    engine: Arc<Engine>,
}

impl Dispatch for EngineDispatch {
    type Pending = ();

    fn stats_json(&self, connections: &str) -> String {
        self.engine.stats_json_with(Some(connections))
    }

    fn begin_infer(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Option<Duration>,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
        waker: &Arc<Waker>,
    ) -> Result<((), Option<Instant>), ServeError> {
        let deadline = deadline.unwrap_or(self.engine.config().default_deadline);
        self.engine
            .enqueue_waking(model, input, deadline, tag, reply, waker)?;
        Ok(((), None))
    }

    fn on_reply(&self, _: &mut (), _: u64, result: Result<Vec<f32>, ServeError>) -> Progress {
        Progress::Done(result)
    }
}

/// A running serving endpoint bound to a local address — epoll-backed:
/// one reactor thread owns every connection, compute stays on the
/// engine's lane workers.
#[derive(Debug)]
pub struct Server {
    handle: ReactorHandle,
    engine: Arc<Engine>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// event loop for `engine`, with default connection deadlines.
    ///
    /// # Errors
    ///
    /// Propagates bind / epoll setup failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> io::Result<Server> {
        Server::bind_with(addr, engine, ReactorConfig::default())
    }

    /// [`Server::bind`] with explicit connection-tier deadlines and
    /// limits (idle/header/write timeouts, connection cap).
    ///
    /// # Errors
    ///
    /// Propagates bind / epoll setup failure.
    pub fn bind_with(addr: &str, engine: Arc<Engine>, cfg: ReactorConfig) -> io::Result<Server> {
        let dispatch = Arc::new(EngineDispatch {
            engine: Arc::clone(&engine),
        });
        let handle = reactor::spawn(addr, dispatch, cfg)?;
        Ok(Server { handle, engine })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The reactor's connection-tier counters (also spliced into
    /// `GET /stats` as `"connections"`).
    pub fn conn_stats(&self) -> &Arc<ConnStats> {
        self.handle.conn_stats()
    }

    /// Stop accepting, drain in-flight connections, and join the
    /// reactor thread. Idempotent.
    pub fn shutdown(&self) {
        self.handle.shutdown();
    }
}

// ---------------------------------------------------------------------
// Thread-per-connection server (legacy baseline)
// ---------------------------------------------------------------------

/// The original thread-per-connection endpoint: a blocking acceptor
/// thread spawns one handler thread per connection. Retained as the
/// baseline the reactor is benched and byte-compared against; new code
/// should front an engine with [`Server`].
#[derive(Debug)]
pub struct ThreadedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    engine: Arc<Engine>,
}

impl ThreadedServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// accepting connections for `engine`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> io::Result<ThreadedServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (stop, engine) = (Arc::clone(&stop), Arc::clone(&engine));
            std::thread::Builder::new()
                .name("af-serve:accept".to_string())
                .spawn(move || accept_loop(&listener, &stop, &engine))?
        };
        Ok(ThreadedServer {
            addr,
            stop,
            acceptor: Mutex::new(Some(acceptor)),
            engine,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stop accepting, wake the acceptor, and join it. Existing
    /// connections drain on their next read timeout. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.lock().expect("acceptor poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadedServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &Arc<AtomicBool>, engine: &Arc<Engine>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let (stop, engine) = (Arc::clone(stop), Arc::clone(engine));
        let _ = std::thread::Builder::new()
            .name("af-serve:conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &stop, &engine);
            });
    }
}

fn handle_connection(stream: TcpStream, stop: &AtomicBool, engine: &Engine) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Protocol violations carry their own status (413 for
                // an oversized body); anything else malformed is a 400.
                let status = violation_status(&e).unwrap_or(400);
                write_response(&mut writer, status, "text/plain", e.to_string().as_bytes())?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        route(&request, engine, &mut writer)?;
    }
}

fn route(request: &Request, engine: &Engine, writer: &mut impl io::Write) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => write_response(writer, 200, "text/plain", b"ok"),
        ("GET", "/stats") => write_response(
            writer,
            200,
            "application/json",
            engine.stats_json().as_bytes(),
        ),
        ("POST", path) if path.starts_with("/v1/infer/") => {
            let variant = &path["/v1/infer/".len()..];
            infer_route(request, variant, engine, writer)
        }
        (_, "/healthz" | "/stats") | ("POST", _) => {
            write_response(writer, 405, "text/plain", b"method not allowed")
        }
        _ => write_response(writer, 404, "text/plain", b"no such route"),
    }
}

fn infer_route(
    request: &Request,
    variant: &str,
    engine: &Engine,
    writer: &mut impl io::Write,
) -> io::Result<()> {
    let Some(input) = decode_f32_body(&request.body) else {
        return write_response(writer, 400, "text/plain", b"malformed f32 body");
    };
    let deadline = match request.header("x-deadline-ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => return write_response(writer, 400, "text/plain", b"malformed x-deadline-ms"),
        },
        None => None,
    };
    let result = match deadline {
        Some(d) => engine.infer_deadline(variant, input, d),
        None => engine.infer(variant, input),
    };
    match result {
        Ok(output) => write_response(
            writer,
            200,
            "application/octet-stream",
            &encode_f32_body(&output),
        ),
        Err(e) => {
            let retry_after = e.retry_after_secs().map(|s| s.to_string());
            let extra: Vec<(&str, &str)> = retry_after
                .as_deref()
                .map(|v| ("retry-after", v))
                .into_iter()
                .collect();
            write_response_with(
                writer,
                e.http_status(),
                "text/plain",
                &extra,
                e.to_string().as_bytes(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::EngineConfig;
    use crate::client::Client;
    use crate::registry::{ModelRegistry, VariantSpec};
    use af_models::ModelFamily;

    fn engine() -> Arc<Engine> {
        let reg = ModelRegistry::new();
        reg.register(&VariantSpec::fp32(
            "m",
            ModelFamily::Seq2Seq,
            11,
            &[8, 12, 4],
        ))
        .unwrap();
        Arc::new(Engine::start(Arc::new(reg), EngineConfig::default()))
    }

    fn server() -> Server {
        Server::bind("127.0.0.1:0", engine()).unwrap()
    }

    #[test]
    fn routes_health_stats_and_errors() {
        let server = server();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.healthz().unwrap());
        let stats = client.stats_json().unwrap();
        assert!(stats.contains("\"received\":"));
        assert!(
            stats.contains("\"connections\":{\"open_connections\":"),
            "reactor splices connection gauges: {stats}"
        );
        // Unknown route and unknown variant.
        let err = client.infer("ghost", &[0.0; 8]).unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Http { status: 404, .. }
        ));
        let err = client.infer("m", &[0.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Http { status: 400, .. }
        ));
        server.shutdown();
    }

    #[test]
    fn protocol_violations_answer_with_specific_statuses() {
        use crate::http::{read_response, MAX_BODY};
        use std::io::Write;

        let server = server();
        let exchange = |raw: String| -> u16 {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut writer = BufWriter::new(stream.try_clone().unwrap());
            let mut reader = BufReader::new(stream);
            writer.write_all(raw.as_bytes()).unwrap();
            writer.flush().unwrap();
            read_response(&mut reader).unwrap().status
        };
        assert_eq!(
            exchange("POST /v1/infer/m HTTP/1.1\r\ncontent-length: junk\r\n\r\n".to_string()),
            400,
            "garbage content-length"
        );
        assert_eq!(
            exchange(format!(
                "POST /v1/infer/m HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            )),
            413,
            "overlong content-length"
        );
        assert_eq!(
            exchange("POST /v1/infer/m HTTP/1.1\r\n\r\n".to_string()),
            400,
            "missing content-length"
        );
        server.shutdown();
    }

    #[test]
    fn served_output_matches_direct_evaluation_bitwise() {
        let server = server();
        let engine = Arc::clone(server.engine());
        let mut client = Client::connect(server.addr()).unwrap();
        let x = af_models::FrozenMlp::synth_inputs(3, 1, 8);
        let input = x.row(0).to_vec();
        let served = client.infer("m", &input).unwrap();
        let direct = engine.registry().get("m").unwrap().model.evaluate(&input);
        let got: Vec<u32> = served.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        server.shutdown();
    }

    #[test]
    fn threaded_server_still_serves_the_same_routes() {
        let server = ThreadedServer::bind("127.0.0.1:0", engine()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.healthz().unwrap());
        let stats = client.stats_json().unwrap();
        assert!(
            stats.contains("\"connections\":null"),
            "no connection tier on the threaded path: {stats}"
        );
        let x = af_models::FrozenMlp::synth_inputs(5, 1, 8);
        let served = client.infer("m", x.row(0)).unwrap();
        let direct = server
            .engine()
            .registry()
            .get("m")
            .unwrap()
            .model
            .evaluate(x.row(0));
        assert_eq!(served, direct);
        server.shutdown();
    }
}
