//! `tcp-mixed`: open-loop Poisson traffic over two pipelined keep-alive
//! connections to one `af_serve::Server` serving five 96→192→192→48
//! variants under `EngineConfig::default()`.

use std::sync::Arc;
use std::time::Instant;

use af_serve::{Engine, EngineConfig, ModelRegistry, Server, VariantSpec};

use crate::bench::{events_per_response, open_loop, Bench, EngineDelta, Metric, Window};
use crate::catalog::{self, Catalog};
use crate::measure::{ms, Tracer};
use crate::profile;

/// Offered load: about a quarter of the ~1.6k rps two connections carry,
/// so that a stall of the shared host does not tip either connection's
/// queue into saturation (at 800 rps it did, and p50 swung tenfold).
pub const RATE: f64 = 400.0;
/// The variant (adaptivfloat8) hot-swapped `SWAPS` times after a traced
/// window, for `writer.swap_p50_ms`.
pub const SWAP_VARIANT: usize = 1;
pub const SWAPS: usize = 20;

#[derive(Debug)]
pub struct TcpMixed {
    pub catalog: Catalog,
    pub seed: u64,
    /// Directory for the profile fleet's stores.
    pub work: std::path::PathBuf,
}

#[derive(Debug)]
pub struct System {
    pub registry: Arc<ModelRegistry>,
    pub engine: Arc<Engine>,
    pub server: Server,
}

/// Register every catalog variant, one span each.
fn register_all(registry: &ModelRegistry, catalog: &Catalog, tracer: &Tracer) {
    for spec in &catalog.specs {
        tracer.timed("register", || {
            registry.register(spec).expect("register variant")
        });
    }
}

/// Re-register `spec` `count` times on the live registry (no traffic),
/// timing each hot swap.
fn hot_swaps(
    registry: &ModelRegistry,
    spec: &VariantSpec,
    count: usize,
    tracer: &Tracer,
) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let t0 = Instant::now();
            registry.register(spec).expect("hot swap");
            let t1 = Instant::now();
            tracer.span("swap", t0, t1, 0, 0);
            ms(t1 - t0)
        })
        .collect()
}

impl Bench for TcpMixed {
    type System = System;

    fn setup(&self, tracer: &Tracer) -> (System, bool) {
        let registry = Arc::new(ModelRegistry::new());
        register_all(&registry, &self.catalog, tracer);
        let engine = Arc::new(Engine::start(
            Arc::clone(&registry),
            EngineConfig::default(),
        ));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind server");
        let ok = self.catalog.first_reply_ok(server.addr());
        (
            System {
                registry,
                engine,
                server,
            },
            ok,
        )
    }

    fn teardown(&self, sys: System) {
        sys.server.shutdown();
        sys.engine.shutdown();
    }

    fn window(&self, sys: &System, seconds: f64, tracer: &Tracer) -> Window {
        let (e0, c0) = (
            sys.engine.stats().snapshot(),
            sys.server.conn_stats().snapshot(),
        );
        let mut w = open_loop(
            sys.server.addr(),
            &self.catalog,
            self.seed,
            RATE,
            seconds,
            tracer,
        );
        let (e1, c1) = (
            sys.engine.stats().snapshot(),
            sys.server.conn_stats().snapshot(),
        );
        w.engine = EngineDelta::between(&[e0], &[e1]);
        w.events_per_request = Some(events_per_response(&c0, &c1));
        let t = w.all_phases();
        let d = w.engine;
        w.reconcile("engine.received vs sent", d.received, t.sent - t.transport);
        w.reconcile("engine.shed vs 429", d.shed, t.shed_429);
        w.reconcile("engine.completed vs 200", d.completed, t.ok + t.wrong_bits);
        w.reconcile("engine.expired vs 5xx", d.expired, t.status_5xx);
        w.reconcile(
            "reactor.responses vs replies",
            c1.responses - c0.responses,
            t.sent - t.transport,
        );
        w
    }

    fn profile(
        &self,
        sys: &System,
        window: &Window,
        tracer: &Tracer,
        setup_spans: (u64, u64),
    ) -> Vec<Metric> {
        let served = catalog::served(&sys.registry, &self.catalog);
        let layers = profile::layers(&served, window.engine.mean_batch(), self.seed);
        let mut out = layers.metrics;
        let engine_for = |_| Arc::clone(&sys.engine);
        out.extend(profile::batcher_in_process(
            &engine_for,
            &self.catalog,
            window,
            layers.forward_at_batch_us,
        ));
        out.extend(profile::front_end(
            sys.server.addr(),
            &self.catalog,
            window.events_per_request.unwrap_or(f64::NAN),
        ));
        let swaps = hot_swaps(
            &sys.registry,
            &self.catalog.specs[SWAP_VARIANT],
            SWAPS,
            tracer,
        );
        out.extend(profile::registry_and_loadgen(
            tracer,
            window,
            setup_spans,
            &swaps,
        ));
        out.extend(crate::fleet::probe_standalone(
            &self.catalog,
            &self.work,
            tracer,
        ));
        out
    }

    fn setup_reps(&self) -> usize {
        9
    }
}
