//! `fleet-churn`: a `FleetServer` over three in-process shards (R=2,
//! default hedging and breakers, `SyncPolicy::EveryRecord`) serving
//! twelve small models. One thread sends open-loop reads over two
//! pipelined connections while a second hot-swaps one model every 250 ms
//! and scrubs every shard every second.
//!
//! The same fleet, built from another workload's catalog, gives that
//! workload its fleet, store and scrub figures ([`probe_standalone`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use af_fleet::{FleetConfig, FleetRouter, FleetServer, Shard, ShardConfig};
use af_serve::{EngineConfig, VariantSpec};
use af_store::SyncPolicy;

use crate::bench::{
    events_per_response, metric, open_loop, Bench, EngineDelta, FleetDelta, Metric, Scrubs, Window,
};
use crate::catalog::{Catalog, POOL, SWAP_MODEL};
use crate::measure::{median, ms, us, Outcome, Tracer};
use crate::{profile, wire};

pub const SHARDS: usize = 3;
/// Offered read load.
pub const RATE: f64 = 400.0;
pub const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Every this many swap ticks, one `scrub_all`.
pub const SCRUB_EVERY_TICKS: u32 = 4;

/// Where fleets keep their stores: a fresh directory per fleet under the
/// run's work directory.
pub fn fresh_root(work: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    work.join(format!("fleet-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

#[derive(Debug)]
pub struct Fleet {
    pub router: Arc<FleetRouter>,
    pub server: FleetServer,
    pub root: PathBuf,
}

impl Fleet {
    /// Join `SHARDS` shards on a fresh store root (one `join` span each),
    /// register `specs` (one `register` span each) and bind the server.
    pub fn build(root: PathBuf, specs: &[VariantSpec], tracer: &Tracer) -> Fleet {
        std::fs::create_dir_all(&root).expect("create fleet root");
        let router = Arc::new(FleetRouter::new(&root, FleetConfig::default()));
        let shard = ShardConfig {
            engine: EngineConfig::default(),
            sync: SyncPolicy::EveryRecord,
            rotate_bytes: 0,
        };
        for i in 0..SHARDS {
            tracer.timed("join", || router.join(i, shard).expect("join shard"));
        }
        for spec in specs {
            tracer.timed("register", || {
                router.register_model(spec).expect("register model")
            });
        }
        let server =
            FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).expect("bind fleet server");
        Fleet {
            router,
            server,
            root,
        }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
        self.router.shutdown();
        drop(self.router);
        let _ = std::fs::remove_dir_all(&self.root);
    }

    fn engine_stats(&self) -> Vec<af_serve::StatsSnapshot> {
        self.router
            .live_shards()
            .into_iter()
            .filter_map(|i| self.router.shard(i))
            .map(|s| s.engine().stats().snapshot())
            .collect()
    }

    fn wal_bytes(&self) -> u64 {
        self.router
            .live_shards()
            .into_iter()
            .filter_map(|i| self.router.shard(i))
            .map(|s| s.store().stats().wal_bytes)
            .sum()
    }

    /// The least-loaded live shard holding model `id`.
    fn holder(&self, id: &str) -> Arc<Shard> {
        self.router
            .selection(id)
            .into_iter()
            .next()
            .expect("a live holder")
    }

    fn scrub(&self, tracer: &Tracer, into: &mut Scrubs, times_ms: &mut Vec<f64>) {
        let t0 = Instant::now();
        let s = self.router.scrub_all();
        let t1 = Instant::now();
        tracer.span("scrub", t0, t1, 0, 0);
        times_ms.push(ms(t1 - t0));
        into.passes += 1;
        into.corrected += s.corrected as u64;
        into.uncorrectable += s.uncorrectable as u64;
    }
}

#[derive(Debug)]
pub struct FleetChurn {
    pub catalog: Catalog,
    pub seed: u64,
    pub work: PathBuf,
}

impl Bench for FleetChurn {
    type System = Fleet;

    fn setup(&self, tracer: &Tracer) -> (Fleet, bool) {
        let fleet = Fleet::build(fresh_root(&self.work), &self.catalog.specs, tracer);
        let ok = self.catalog.first_reply_ok(fleet.server.addr());
        (fleet, ok)
    }

    fn teardown(&self, fleet: Fleet) {
        fleet.shutdown();
    }

    fn window(&self, fleet: &Fleet, seconds: f64, tracer: &Tracer) -> Window {
        let (e0, f0, c0, wal0) = (
            fleet.engine_stats(),
            fleet.router.stats().snapshot(),
            fleet.server.conn_stats().snapshot(),
            fleet.wal_bytes(),
        );
        let swap_spec = &self.catalog.specs[SWAP_MODEL];
        let (stop, stopped) = mpsc::channel::<()>();
        let (mut w, (swaps_ms, scrubs)) = std::thread::scope(|s| {
            // The writer: a hot swap every SWAP_EVERY and a scrub every
            // SCRUB_EVERY_TICKS swaps, sleeping in between, until the
            // reads finish.
            let writer = s.spawn(move || {
                let (mut swaps, mut scrubs, mut scrub_ms) =
                    (Vec::new(), Scrubs::default(), Vec::new());
                let start = Instant::now();
                for tick in 1u32.. {
                    let due = start + SWAP_EVERY * tick;
                    if stopped.recv_timeout(due.saturating_duration_since(Instant::now()))
                        != Err(mpsc::RecvTimeoutError::Timeout)
                    {
                        break;
                    }
                    let t0 = Instant::now();
                    fleet.router.register_model(swap_spec).expect("hot swap");
                    let t1 = Instant::now();
                    tracer.span("swap", t0, t1, 0, 0);
                    swaps.push(ms(t1 - t0));
                    if tick % SCRUB_EVERY_TICKS == 0 {
                        fleet.scrub(tracer, &mut scrubs, &mut scrub_ms);
                    }
                }
                (swaps, scrubs)
            });
            let w = open_loop(
                fleet.server.addr(),
                &self.catalog,
                self.seed,
                RATE,
                seconds,
                tracer,
            );
            drop(stop);
            (w, writer.join().expect("writer thread"))
        });
        let (e1, f1, c1, wal1) = (
            fleet.engine_stats(),
            fleet.router.stats().snapshot(),
            fleet.server.conn_stats().snapshot(),
            fleet.wal_bytes(),
        );
        w.engine = EngineDelta::between(&e0, &e1);
        w.events_per_request = Some(events_per_response(&c0, &c1));
        let f = FleetDelta::between(&f0, &f1);
        w.fleet = Some(f);
        w.wal_bytes_per_swap = Some((wal1 - wal0) as f64 / swaps_ms.len().max(1) as f64);
        w.swaps_ms = swaps_ms;
        w.scrubs = scrubs;
        let t = w.all_phases();
        w.reconcile(
            "fleet.requests vs routed (sent - transport - 429)",
            f.requests,
            t.sent - t.transport - t.shed_429,
        );
        w.reconcile("fleet.completed vs 200", f.completed, t.ok + t.wrong_bits);
        w.reconcile("fleet.failed vs 5xx", f.failed, t.status_5xx);
        w.reconcile(
            "reactor.responses vs replies",
            c1.responses - c0.responses,
            t.sent - t.transport,
        );
        w
    }

    fn profile(
        &self,
        fleet: &Fleet,
        window: &Window,
        tracer: &Tracer,
        setup_spans: (u64, u64),
    ) -> Vec<Metric> {
        let served: Vec<_> = self
            .catalog
            .ids()
            .map(|id| {
                fleet
                    .holder(id)
                    .engine()
                    .registry()
                    .get(id)
                    .expect("placed variant")
            })
            .collect();
        let layers = profile::layers(&served, window.engine.mean_batch(), self.seed);
        let mut out = layers.metrics;
        let engine_for = |v: usize| Arc::clone(fleet.holder(&self.catalog.specs[v].id).engine());
        out.extend(profile::batcher_in_process(
            &engine_for,
            &self.catalog,
            window,
            layers.forward_at_batch_us,
        ));
        out.extend(profile::front_end(
            fleet.server.addr(),
            &self.catalog,
            window.events_per_request.unwrap_or(f64::NAN),
        ));
        out.extend(profile::registry_and_loadgen(
            tracer,
            window,
            setup_spans,
            &window.swaps_ms,
        ));
        out.extend(probe(fleet, &self.catalog, tracer));
        let mut scrub_ms: Vec<f64> = tracer
            .durations_us("scrub", setup_spans.1..u64::MAX)
            .iter()
            .map(|t| t / 1e3)
            .collect();
        out.extend(counters(
            window.fleet.unwrap_or_default(),
            window.wal_bytes_per_swap.unwrap_or(f64::NAN),
            &mut scrub_ms,
            window.scrubs,
        ));
        out
    }

    fn setup_reps(&self) -> usize {
        5
    }
}

/// Fleet and store figures: in-process `FleetRouter::infer` against the
/// server round trip for the same requests, `join` spans for store open,
/// and `DurableStore::sync` per shard.
fn probe(fleet: &Fleet, catalog: &Catalog, tracer: &Tracer) -> Vec<Metric> {
    let n = catalog.specs.len();
    let requests = |i: usize| (i % n, (i * 7) % POOL);
    let mut infer: Vec<f64> = (0..profile::PROBES)
        .map(|i| {
            let (v, x) = requests(i);
            let input = catalog.inputs[v][x].clone();
            let t0 = Instant::now();
            let reply = fleet.router.infer(&catalog.specs[v].id, input);
            let t = us(t0.elapsed());
            profile::note_reply(reply.is_ok_and(|y| catalog.matches(v, x, &y)));
            t
        })
        .collect();
    let mut conn = wire::connect(fleet.server.addr()).expect("connect hop probe");
    let mut framer = wire::ResponseFramer::default();
    let mut rtt: Vec<f64> = (0..profile::PROBES)
        .map(|i| {
            let (v, x) = requests(i);
            let t0 = Instant::now();
            let (status, body) = wire::round_trip(&mut conn, &mut framer, &catalog.requests[v][x])
                .expect("hop probe");
            let t = us(t0.elapsed());
            profile::note_reply(
                wire::classify(status, &body, &catalog.expected_body[v][x]) == Outcome::Ok,
            );
            t
        })
        .collect();
    let mut sync: Vec<f64> = Vec::new();
    for i in fleet.router.live_shards() {
        let shard = fleet.router.shard(i).expect("live shard");
        for _ in 0..10 {
            let t0 = Instant::now();
            shard.store().sync().expect("store sync");
            sync.push(ms(t0.elapsed()));
        }
    }
    let infer_us = median(&mut infer);
    vec![
        metric("fleet.router.infer_us", infer_us, "us"),
        metric("fleet.server.hop_us", median(&mut rtt) - infer_us, "us"),
        metric(
            "store.open_ms",
            median(&mut tracer.durations_us("join", 0..u64::MAX)) / 1e3,
            "ms",
        ),
        metric("store.sync_ms", median(&mut sync), "ms"),
    ]
}

/// Router counters, WAL growth per swap and scrub figures.
fn counters(
    f: FleetDelta,
    wal_bytes_per_swap: f64,
    scrub_ms: &mut [f64],
    scrubs: Scrubs,
) -> Vec<Metric> {
    let hedges = f.hedges as f64;
    vec![
        metric("fleet.hedges", hedges, "count"),
        metric(
            "fleet.hedge_win_share",
            if f.hedges > 0 {
                f.hedge_wins as f64 / hedges
            } else {
                0.0
            },
            "share",
        ),
        metric("fleet.failovers", f.failovers as f64, "count"),
        metric("fleet.breaker_opens", f.breaker_opens as f64, "count"),
        metric("store.wal_bytes_per_swap", wal_bytes_per_swap, "bytes"),
        metric("resilience.scrub_ms", median(scrub_ms), "ms"),
        metric(
            "resilience.ecc_corrected",
            (scrubs.corrected + scrubs.uncorrectable) as f64,
            "count",
        ),
    ]
}

/// Fleet figures for a workload that does not run a fleet: build one over
/// its catalog, time swaps and scrubs on it, probe it, and tear it down.
pub fn probe_standalone(catalog: &Catalog, work: &Path, tracer: &Tracer) -> Vec<Metric> {
    const SWAPS: usize = 4;
    let fleet = Fleet::build(fresh_root(work), &catalog.specs, tracer);
    let (f0, wal0) = (fleet.router.stats().snapshot(), fleet.wal_bytes());
    for _ in 0..SWAPS {
        tracer.timed("swap", || {
            fleet
                .router
                .register_model(&catalog.specs[0])
                .expect("hot swap")
        });
    }
    let wal_per_swap = (fleet.wal_bytes() - wal0) as f64 / SWAPS as f64;
    let (mut scrubs, mut scrub_ms) = (Scrubs::default(), Vec::new());
    for _ in 0..3 {
        fleet.scrub(tracer, &mut scrubs, &mut scrub_ms);
    }
    let mut out = probe(&fleet, catalog, tracer);
    let f = FleetDelta::between(&f0, &fleet.router.stats().snapshot());
    out.extend(counters(f, wal_per_swap, &mut scrub_ms, scrubs));
    fleet.shutdown();
    out
}
