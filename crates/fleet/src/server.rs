//! The fleet's TCP front end: the same wire protocol as
//! `af_serve::server` (so `af_serve::Client` drives it unchanged), but
//! every `POST /v1/infer/<model>` goes through the [`FleetRouter`] —
//! consistent-hash placement, load-aware selection, hedging, failover —
//! instead of a single engine, and `GET /stats` answers the fleet
//! document ([`FleetRouter::stats_json`]).
//!
//! Connections ride the same epoll reactor as the single-node server
//! ([`af_serve::reactor`]), and so does routing: each admitted request
//! is one routing state machine (`crate::router::Routing`) held as the
//! connection's pending dispatch state. Shard attempts answer straight
//! into the reactor's reply channel ([`af_serve::Engine::enqueue_waking`])
//! tagged with the request and attempt; the reactor feeds each reply,
//! and each hedge or deadline instant it arms on its timer wheel, back
//! into the machine. No thread sits between the reactor and the shard
//! engines.
//!
//! Over HTTP, hedges and deadlines ride the reactor's 10 ms wheel:
//! never early, at most one tick late. The in-process path
//! ([`FleetRouter::infer_deadline`]) waits with precise `recv_timeout`s.

use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use af_serve::reactor::{self, Dispatch, ReactorConfig, ReactorHandle};
use af_serve::stats::ConnStats;
use af_serve::sys::Waker;
use af_serve::{Progress, ServeError, TaggedReply};

use crate::router::{FleetRouter, ReplySink, Routing};

/// [`Dispatch`] for a [`FleetRouter`]: each request's pending state is
/// its [`Routing`], stepped by replies and timers on the reactor.
#[derive(Debug)]
struct RouterDispatch {
    router: Arc<FleetRouter>,
}

impl Dispatch for RouterDispatch {
    type Pending = Routing;

    fn stats_json(&self, connections: &str) -> String {
        self.router.stats_json_with(Some(connections))
    }

    fn begin_infer(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Option<Duration>,
        tag: u64,
        reply: &mpsc::Sender<TaggedReply>,
        waker: &Arc<Waker>,
    ) -> Result<(Routing, Option<Instant>), ServeError> {
        let deadline = deadline.unwrap_or(self.router.config().default_deadline);
        let sink = ReplySink {
            reply: reply.clone(),
            waker: Some(Arc::clone(waker)),
            tag,
        };
        Routing::start(&self.router, model, input, deadline, sink)
    }

    fn on_reply(
        &self,
        routing: &mut Routing,
        tag: u64,
        result: Result<Vec<f32>, ServeError>,
    ) -> Progress {
        routing.on_reply(&self.router, tag, result)
    }

    fn on_timer(&self, routing: &mut Routing, now: Instant) -> Progress {
        routing.on_timer(&self.router, now)
    }

    fn abandon(&self, routing: Routing) {
        routing.abandon(&self.router);
    }
}

/// A running fleet endpoint bound to a local address: epoll reactor in
/// front, routing on the reactor, shard engines below.
#[derive(Debug)]
pub struct FleetServer {
    handle: ReactorHandle,
    router: Arc<FleetRouter>,
}

impl FleetServer {
    /// Bind `addr` (port 0 for ephemeral) and start serving `router`
    /// with default connection deadlines.
    ///
    /// # Errors
    ///
    /// Propagates bind / epoll setup failure.
    pub fn bind(addr: &str, router: Arc<FleetRouter>) -> io::Result<FleetServer> {
        FleetServer::bind_with(addr, router, ReactorConfig::default())
    }

    /// [`FleetServer::bind`] with explicit connection-tier deadlines
    /// and limits.
    ///
    /// # Errors
    ///
    /// Propagates bind / epoll setup failure.
    pub fn bind_with(
        addr: &str,
        router: Arc<FleetRouter>,
        cfg: ReactorConfig,
    ) -> io::Result<FleetServer> {
        let dispatch = Arc::new(RouterDispatch {
            router: Arc::clone(&router),
        });
        let handle = reactor::spawn(addr, dispatch, cfg)?;
        Ok(FleetServer { handle, router })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The router this server fronts.
    pub fn router(&self) -> &Arc<FleetRouter> {
        &self.router
    }

    /// The reactor's connection-tier counters (also spliced into
    /// `GET /stats` as `"connections"`).
    pub fn conn_stats(&self) -> &Arc<ConnStats> {
        self.handle.conn_stats()
    }

    /// Stop accepting, drain in-flight requests and join the reactor.
    /// Idempotent (and run on drop).
    pub fn shutdown(&self) {
        self.handle.shutdown();
    }
}
