//! The TCP front end: [`Server`], an epoll reactor thread
//! ([`crate::reactor`]) that multiplexes every connection non-blocking,
//! parses incrementally, admits through the engine's tagged
//! [`Engine::enqueue_waking`] seam, and resumes writes on readiness.
//! One thread serves thousands of connections; compute stays on the
//! engine's compute workers.
//!
//! Routes:
//!
//! * `GET /healthz` — `200 ok` while the server is accepting.
//! * `GET /stats` — engine counters and per-variant detail as JSON,
//!   with the reactor's connection gauges as a `"connections"` object.
//! * `POST /v1/infer/<variant>` — body is a length-delimited `f32`
//!   vector ([`crate::http::encode_f32_body`]); an optional
//!   `x-deadline-ms` header overrides the engine's default deadline.
//!   Errors map onto [`crate::ServeError::http_status`]: 404 unknown variant,
//!   400 bad width or framing, 429 shed, 504 deadline, 503 shutdown,
//!   500 worker fault. Protocol violations answer before the engine is
//!   involved: missing or garbage `Content-Length` is a 400, one
//!   exceeding [`crate::http::MAX_BODY`] is a 413. Idle and slow-loris
//!   connections are answered 408 at their deadline and closed.

use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::batcher::{Engine, ServeError, TaggedReply};
use crate::reactor::{self, Dispatch, Progress, ReactorConfig, ReactorHandle};
use crate::stats::ConnStats;
use crate::sys::Waker;

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
/// engine's compute workers.
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
        use std::io::{BufReader, BufWriter, Write};
        use std::net::TcpStream;

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
}
