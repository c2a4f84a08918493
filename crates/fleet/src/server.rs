//! The fleet's TCP front end: the same wire protocol as
//! `af_serve::server` (so `af_serve::Client` drives it unchanged), but
//! every `POST /v1/infer/<model>` goes through the [`FleetRouter`] —
//! consistent-hash placement, load-aware selection, hedging, failover —
//! instead of a single engine, and `GET /stats` answers the fleet
//! document ([`FleetRouter::stats_json`]).
//!
//! Connections ride the same epoll reactor as the single-node server
//! ([`af_serve::reactor`]). Routing itself is a *blocking* operation
//! (hedged waits, failover retries), so it cannot run on the event
//! loop: admitted requests cross into a small **routing pool** through
//! a bounded queue, pool workers call
//! [`FleetRouter::infer_deadline`] and deliver the tagged reply back
//! through the reactor's eventfd waker. A full pool queue sheds with
//! `429`, exactly like a full engine lane.

use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use af_serve::queue::{BatchQueue, PushError};
use af_serve::reactor::{self, Dispatch, ReactorConfig, ReactorHandle};
use af_serve::stats::ConnStats;
use af_serve::sys::Waker;
use af_serve::{ServeError, TaggedReply};

use crate::router::FleetRouter;

/// Threads in the routing pool — the concurrency ceiling for blocking
/// hedged routing (each in-flight request occupies one pool thread).
const POOL_THREADS: usize = 32;

/// Bound on requests admitted but not yet picked up by a pool thread.
const POOL_QUEUE_CAP: usize = 1024;

/// One admitted request travelling from the reactor to the routing
/// pool. Answers `500` on drop if no reply was sent — the reactor's
/// "exactly one reply per admitted request" invariant must hold even
/// when the pool is torn down with work still queued.
struct PoolJob {
    model: String,
    input: Vec<f32>,
    deadline: Option<Duration>,
    tag: u64,
    reply: Option<(mpsc::Sender<TaggedReply>, Arc<Waker>)>,
}

impl std::fmt::Debug for PoolJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolJob")
            .field("model", &self.model)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

impl PoolJob {
    fn answer(mut self, result: Result<Vec<f32>, ServeError>) {
        if let Some((sender, waker)) = self.reply.take() {
            let _ = sender.send((self.tag, result));
            waker.wake();
        }
    }
}

impl Drop for PoolJob {
    fn drop(&mut self) {
        if let Some((sender, waker)) = self.reply.take() {
            let _ = sender.send((self.tag, Err(ServeError::Internal)));
            waker.wake();
        }
    }
}

/// [`Dispatch`] for a [`FleetRouter`]: admission is a non-blocking push
/// into the routing pool's bounded queue.
#[derive(Debug)]
struct RouterDispatch {
    router: Arc<FleetRouter>,
    pool: Arc<BatchQueue<PoolJob>>,
}

impl Dispatch for RouterDispatch {
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
    ) -> Result<(), ServeError> {
        let job = PoolJob {
            model: model.to_string(),
            input,
            deadline,
            tag,
            reply: Some((reply.clone(), Arc::clone(waker))),
        };
        self.pool.try_push_reclaim(job).map_err(|(mut job, e)| {
            // Refused at admission: the reactor answers directly, so
            // the job must not also reply from its destructor.
            job.reply = None;
            match e {
                PushError::Full => ServeError::Overloaded,
                PushError::Closed => ServeError::ShuttingDown,
            }
        })
    }
}

fn pool_worker(queue: &BatchQueue<PoolJob>, router: &FleetRouter) {
    // Single-item pops: routing is blocking per request, there is no
    // batch to form here (shard engines batch on their own lanes).
    while let Some(batch) = queue.pop_batch(1) {
        for job in batch {
            let result = match job.deadline {
                Some(d) => router.infer_deadline(&job.model, job.input.clone(), d),
                None => router.infer(&job.model, job.input.clone()),
            };
            job.answer(result);
        }
    }
}

/// A running fleet endpoint bound to a local address: epoll reactor in
/// front, routing pool behind, shard engines below.
#[derive(Debug)]
pub struct FleetServer {
    handle: ReactorHandle,
    router: Arc<FleetRouter>,
    pool: Arc<BatchQueue<PoolJob>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
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
        let pool = Arc::new(BatchQueue::bounded(POOL_QUEUE_CAP));
        let mut workers = Vec::with_capacity(POOL_THREADS);
        for i in 0..POOL_THREADS {
            let (queue, router) = (Arc::clone(&pool), Arc::clone(&router));
            workers.push(
                std::thread::Builder::new()
                    .name(format!("af-fleet:route-{i}"))
                    .spawn(move || pool_worker(&queue, &router))?,
            );
        }
        let dispatch = Arc::new(RouterDispatch {
            router: Arc::clone(&router),
            pool: Arc::clone(&pool),
        });
        let handle = reactor::spawn(addr, dispatch, cfg)?;
        Ok(FleetServer {
            handle,
            router,
            pool,
            workers: Mutex::new(workers),
        })
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

    /// Stop accepting, drain in-flight requests, join the reactor and
    /// the routing pool. Idempotent.
    pub fn shutdown(&self) {
        // Reactor first: it drains in-flight requests, which need live
        // pool workers to produce their replies.
        self.handle.shutdown();
        self.pool.close();
        let workers: Vec<_> = crate::lock::lock(&self.workers).drain(..).collect();
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
