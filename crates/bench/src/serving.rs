//! Serving load test: drive the `af-serve` endpoint over real TCP and
//! measure throughput and tail latency per format variant and batching
//! configuration.
//!
//! Each cell spins up a fresh [`Engine`] + [`Server`] (over one shared
//! model registry), aims a closed loop of persistent-connection clients
//! at a single variant, and records per-request latency client-side.
//! Percentiles are exact (sorted sample, not a sketch), shed counts come
//! from the engine's own counters, and every cell opens with an untimed
//! probe checked bit-for-bit against direct [`FrozenMlp::evaluate`] — a
//! load test that silently served garbage would be worse than none. The
//! probe is not counted: `completed + shed == requests` in every cell.
//!
//! The `serve_load` binary prints the rendered table and writes the
//! structured cells to `BENCH_serving.json`.

use std::sync::Arc;
use std::time::Instant;

use adaptivfloat::FormatKind;
use af_models::{FrozenMlp, ModelFamily};
use af_serve::{
    Client, ClientError, DurableStore, Engine, EngineConfig, ModelRegistry, Server, VariantSpec,
};
use af_store::SyncPolicy;

use crate::render::TextTable;

/// Layer widths of the served model (Transformer-family ensemble).
pub const DIMS: [usize; 4] = [96, 192, 192, 48];

/// Layer widths of the full run's wide model — large enough that weight
/// streaming (not batching overhead) dominates, where the fused packed
/// GEMM's reduced memory traffic shows.
pub const WIDE_DIMS: [usize; 4] = [256, 512, 512, 128];

/// Synthesis seed for every served variant (same weights pre-PTQ).
pub const MODEL_SEED: u64 = 0x5E12_F00D;

/// One measured cell: variant × batch cap.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Registry id of the variant driven.
    pub variant: String,
    /// Weight format name.
    pub weight_format: String,
    /// Activation format name (`"-"` for FP32 serving).
    pub act_format: String,
    /// Batch cap of this configuration.
    pub max_batch: usize,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Requests issued across all connections.
    pub requests: usize,
    /// Timed requests answered `200`.
    pub completed: u64,
    /// Requests shed (`429`).
    pub shed: u64,
    /// Completed requests per second over the cell's wall time.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Mean live requests per evaluate pass (batching effectiveness).
    pub mean_batch: f64,
    /// Whether the variant serves through the fused packed-weight GEMM.
    pub fused: bool,
    /// Weight bytes the batch path streams per request (packed codes
    /// for fused layers, f32 otherwise).
    pub weight_bytes: usize,
}

/// Durable-store timing: what a restart costs compared to quantizing
/// every variant from the f32 master again.
#[derive(Debug, Clone, Copy)]
pub struct StoreBench {
    /// Variants measured.
    pub variants: usize,
    /// Registering every variant into a fresh durable store (PTQ,
    /// calibration, codebook builds, container writes), microseconds.
    pub cold_register_us: u64,
    /// Reopening the store from its WAL + live containers (the
    /// `kill -9` recovery path), microseconds.
    pub warm_open_wal_us: u64,
    /// Reopening after a checkpoint folded the WAL, microseconds.
    pub warm_open_ckpt_us: u64,
    /// Whether every recovered variant answered bit-identically to its
    /// pre-restart snapshot (the run panics otherwise; recorded for the
    /// JSON consumer).
    pub bit_identical: bool,
}

/// One point of the connection-scaling ladder: the reactor [`Server`]
/// under a fixed closed loop of concurrent connections.
#[derive(Debug, Clone)]
pub struct ReactorCell {
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Requests attempted across all connections.
    pub requests: usize,
    /// Requests answered `200`.
    pub completed: u64,
    /// Requests shed with `429` (any other failure panics the run).
    pub failed: u64,
    /// Completed requests per second over the point's wall time.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

/// Connection scaling of the epoll reactor, one ladder rung per
/// connection count.
#[derive(Debug, Clone)]
pub struct ReactorBench {
    /// Ladder points, in ascending connection count.
    pub cells: Vec<ReactorCell>,
    /// Whether every rung's probe answer equalled direct evaluation bit
    /// for bit (the run panics otherwise; recorded for JSON).
    pub bit_identical: bool,
    /// Rendered text table.
    pub rendered: String,
}

/// Load-test output: cells, the JSON document, and a rendered table.
#[derive(Debug, Clone)]
pub struct Serving {
    /// One cell per variant × batch cap.
    pub cells: Vec<ServeCell>,
    /// Durable-store restart timing (`None` in `--packed` mode).
    pub store: Option<StoreBench>,
    /// Fleet scaling sweep (`None` in `--packed` mode).
    pub fleet: Option<crate::fleet::FleetBench>,
    /// Reactor connection ladder (`None` in `--packed` mode).
    pub reactor: Option<ReactorBench>,
    /// `BENCH_serving.json` contents.
    pub json: String,
    /// Rendered text table.
    pub rendered: String,
}

pub(crate) fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn variant_specs(quick: bool) -> Vec<VariantSpec> {
    let mut specs = vec![
        VariantSpec::fp32(
            "transformer/fp32",
            ModelFamily::Transformer,
            MODEL_SEED,
            &DIMS,
        ),
        VariantSpec::quantized(
            "transformer/adaptivfloat8",
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            MODEL_SEED,
            &DIMS,
        ),
    ];
    // The fused twin of adaptivfloat8: same weights, packed codes
    // decoded inside the GEMM — the fused-vs-dequantize comparison pair.
    specs.push(
        VariantSpec::quantized(
            "transformer/adaptivfloat8-fused",
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            MODEL_SEED,
            &DIMS,
        )
        .fused(),
    );
    if !quick {
        specs.push(VariantSpec::quantized(
            "transformer/uniform8",
            ModelFamily::Transformer,
            FormatKind::Uniform,
            8,
            MODEL_SEED,
            &DIMS,
        ));
        specs.push(
            VariantSpec::quantized(
                "transformer/uniform8-fused",
                ModelFamily::Transformer,
                FormatKind::Uniform,
                8,
                MODEL_SEED,
                &DIMS,
            )
            .fused(),
        );
        specs.push(VariantSpec::quantized(
            "transformer/posit8",
            ModelFamily::Transformer,
            FormatKind::Posit,
            8,
            MODEL_SEED,
            &DIMS,
        ));
        // A wide pair where weight streaming dominates the request cost.
        specs.push(VariantSpec::quantized(
            "transformer/adaptivfloat8-wide",
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            MODEL_SEED,
            &WIDE_DIMS,
        ));
        specs.push(
            VariantSpec::quantized(
                "transformer/adaptivfloat8-wide-fused",
                ModelFamily::Transformer,
                FormatKind::AdaptivFloat,
                8,
                MODEL_SEED,
                &WIDE_DIMS,
            )
            .fused(),
        );
    }
    specs
}

fn batch_configs(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 8]
    } else {
        vec![1, 8, 32]
    }
}

/// The untimed bit-identity probe each cell opens with: one served
/// answer must match direct evaluation bit for bit.
fn probe(addr: std::net::SocketAddr, variant: &str, reference: &FrozenMlp) {
    let x = FrozenMlp::synth_inputs(1000, 1, reference.in_dim());
    let mut client = Client::connect(addr).expect("connect probe client");
    let got = client.infer(variant, x.row(0)).expect("probe request");
    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = reference
        .evaluate(x.row(0))
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, want, "served output must match direct evaluation");
}

/// Drive one variant through one server configuration; returns
/// client-side latencies (µs) and the shed count observed client-side.
fn drive(
    addr: std::net::SocketAddr,
    variant: &str,
    in_dim: usize,
    connections: usize,
    per_conn: usize,
) -> (Vec<u64>, u64) {
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let (addr, variant) = (addr, variant.to_string());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                let inputs = FrozenMlp::synth_inputs(2000 + c as u64, 16, in_dim);
                let mut latencies = Vec::with_capacity(per_conn);
                let mut shed = 0u64;
                for r in 0..per_conn {
                    let input = inputs.row(r % inputs.rows());
                    let t0 = Instant::now();
                    match client.infer(&variant, input) {
                        Ok(_) => latencies.push(t0.elapsed().as_micros() as u64),
                        Err(ClientError::Http { status: 429, .. }) => shed += 1,
                        Err(e) => panic!("load request failed: {e}"),
                    }
                }
                (latencies, shed)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut shed = 0u64;
    for h in handles {
        let (l, s) = h.join().expect("load connection panicked");
        latencies.extend(l);
        shed += s;
    }
    (latencies, shed)
}

/// Measure durable-store restart cost against cold registration: build
/// the quick variant set into a fresh store, then reopen it from the
/// WAL and again from a checkpoint, checking bit-identity both times.
///
/// # Panics
///
/// Panics on store errors or if any recovered variant's outputs differ
/// from its pre-restart snapshot.
pub fn measure_store(quick: bool) -> StoreBench {
    let specs = variant_specs(quick);
    let root = std::env::temp_dir().join(format!("af-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let inputs = FrozenMlp::synth_inputs(41, 1, DIMS[0]);
    let bits = |m: &af_models::FrozenMlp| -> Vec<u32> {
        m.evaluate(inputs.row(0))
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };

    // Cold path: quantize every variant from its f32 master and persist.
    let t0 = Instant::now();
    let opened = DurableStore::open(&root, SyncPolicy::EveryRecord, 0).expect("open store");
    for spec in &specs {
        if spec.dims == WIDE_DIMS {
            continue; // same in_dim needed for the shared probe input
        }
        opened.registry.register(spec).expect("register variant");
    }
    let cold_register_us = t0.elapsed().as_micros() as u64;
    let variants = opened.registry.len();
    let want: Vec<(String, Vec<u32>)> = opened
        .registry
        .ids()
        .iter()
        .map(|id| (id.clone(), bits(&opened.registry.get(id).unwrap().model)))
        .collect();
    drop(opened);

    let verify = |opened: &af_serve::DurableOpen| {
        assert_eq!(opened.registry.len(), variants);
        for (id, row) in &want {
            let v = opened.registry.get(id).expect("recovered variant");
            assert_eq!(&bits(&v.model), row, "{id} must recover bit-identically");
        }
    };

    // Warm path 1: recover from the WAL + live containers (kill -9).
    let t1 = Instant::now();
    let opened = DurableStore::open(&root, SyncPolicy::EveryRecord, 0).expect("reopen store");
    let warm_open_wal_us = t1.elapsed().as_micros() as u64;
    verify(&opened);

    // Warm path 2: recover from a folded checkpoint.
    opened.store.checkpoint().expect("checkpoint");
    drop(opened);
    let t2 = Instant::now();
    let opened = DurableStore::open(&root, SyncPolicy::EveryRecord, 0).expect("reopen checkpoint");
    let warm_open_ckpt_us = t2.elapsed().as_micros() as u64;
    verify(&opened);
    drop(opened);
    let _ = std::fs::remove_dir_all(&root);

    StoreBench {
        variants,
        cold_register_us,
        warm_open_wal_us,
        warm_open_ckpt_us,
        bit_identical: true,
    }
}

/// Measure the connection-scaling ladder: the epoll reactor under a
/// closed loop at each rung, sized (queue capacity ≥ 2× connections) so
/// every request must complete. Each rung opens with the untimed
/// bit-identity probe every serving cell opens with.
///
/// # Panics
///
/// Panics if the server fails to bind, a request fails, or the probe
/// answer differs from direct evaluation.
pub fn measure_reactor(quick: bool) -> ReactorBench {
    let ladder: &[usize] = if quick { &[64, 512] } else { &[64, 256, 1024] };
    let per_conn = if quick { 4 } else { 8 };
    let variant = "transformer/fp32";
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(&VariantSpec::fp32(
            variant,
            ModelFamily::Transformer,
            MODEL_SEED,
            &DIMS,
        ))
        .expect("register ladder variant");
    let reference = registry.get(variant).expect("registered variant");

    let mut cells = Vec::new();
    for &connections in ladder {
        let engine = Arc::new(Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                max_batch: 32,
                queue_cap: (2 * connections).max(64),
                ..EngineConfig::default()
            },
        ));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind epoll");
        probe(server.addr(), variant, &reference.model);
        let t0 = Instant::now();
        let (mut latencies, failed) = drive(server.addr(), variant, DIMS[0], connections, per_conn);
        let wall = t0.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let completed = latencies.len() as u64;
        cells.push(ReactorCell {
            connections,
            requests: connections * per_conn,
            completed,
            failed,
            throughput_rps: completed as f64 / wall.max(1e-9),
            p50_us: percentile(&latencies, 0.50),
            p95_us: percentile(&latencies, 0.95),
            p99_us: percentile(&latencies, 0.99),
        });
        server.shutdown();
        engine.shutdown();
    }

    let rendered = render_reactor_table(&cells);
    ReactorBench {
        cells,
        bit_identical: true,
        rendered,
    }
}

fn render_reactor_table(cells: &[ReactorCell]) -> String {
    let mut t = TextTable::new([
        "conns",
        "requests",
        "completed",
        "failed",
        "rps",
        "p50_us",
        "p95_us",
        "p99_us",
    ]);
    for c in cells {
        t.row([
            c.connections.to_string(),
            c.requests.to_string(),
            c.completed.to_string(),
            c.failed.to_string(),
            format!("{:.0}", c.throughput_rps),
            c.p50_us.to_string(),
            c.p95_us.to_string(),
            c.p99_us.to_string(),
        ]);
    }
    t.render()
}

/// Run the serving load test. `quick` trims the variant set, batch
/// configurations, and request counts for CI.
///
/// # Panics
///
/// Panics if a variant fails to register, the server fails to bind
/// `127.0.0.1:0`, or a served response is not bit-identical to direct
/// evaluation.
pub fn run(quick: bool) -> Serving {
    run_with_fleet(quick, crate::fleet::FleetOpts::for_mode(quick))
}

/// [`run`] with an explicit fleet-sweep shape (the
/// `serve_load --shards/--replicas/--connections` path).
///
/// # Panics
///
/// See [`run`], [`crate::fleet::run_with`], and [`measure_reactor`].
pub fn run_with_fleet(quick: bool, fleet_opts: crate::fleet::FleetOpts) -> Serving {
    let store = measure_store(quick);
    let fleet = crate::fleet::run_with(fleet_opts);
    let reactor = measure_reactor(quick);
    run_with_specs(
        quick,
        variant_specs(quick),
        Some(store),
        Some(fleet),
        Some(reactor),
    )
}

/// The packed-weights comparison: only dequantize-vs-fused twins of the
/// same model, side by side, so the fused GEMM's effect is read off two
/// adjacent rows with everything else equal (`serve_load --packed`).
pub fn run_packed(quick: bool) -> Serving {
    let specs: Vec<VariantSpec> = variant_specs(false)
        .into_iter()
        .filter(|s| {
            s.id.starts_with("transformer/adaptivfloat8") && !(quick && s.id.contains("wide"))
        })
        .collect();
    run_with_specs(quick, specs, None, None, None)
}

fn run_with_specs(
    quick: bool,
    specs: Vec<VariantSpec>,
    store: Option<StoreBench>,
    fleet: Option<crate::fleet::FleetBench>,
    reactor: Option<ReactorBench>,
) -> Serving {
    let (connections, per_conn) = if quick { (4, 40) } else { (8, 200) };
    let registry = Arc::new(ModelRegistry::new());
    for spec in &specs {
        registry.register(spec).expect("register variant");
    }

    let mut cells = Vec::new();
    for max_batch in batch_configs(quick) {
        for spec in &specs {
            let engine = Arc::new(Engine::start(
                Arc::clone(&registry),
                EngineConfig {
                    max_batch,
                    ..EngineConfig::default()
                },
            ));
            let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind server");
            let reference = registry.get(&spec.id).expect("registered variant");
            probe(server.addr(), &spec.id, &reference.model);
            let t0 = Instant::now();
            let (mut latencies, shed_seen) = drive(
                server.addr(),
                &spec.id,
                reference.model.in_dim(),
                connections,
                per_conn,
            );
            let wall = t0.elapsed().as_secs_f64();
            let snap = engine.stats().snapshot();
            let completed = latencies.len() as u64;
            assert_eq!(snap.shed, shed_seen, "server and client shed counts agree");
            assert_eq!(
                snap.completed,
                completed + 1,
                "the engine completed the probe plus every timed request"
            );
            latencies.sort_unstable();
            cells.push(ServeCell {
                variant: spec.id.clone(),
                weight_format: reference.model.format_name().to_string(),
                act_format: reference
                    .model
                    .act_format_name()
                    .unwrap_or_else(|| "-".to_string()),
                max_batch,
                connections,
                requests: connections * per_conn,
                completed,
                shed: snap.shed,
                throughput_rps: completed as f64 / wall.max(1e-9),
                p50_us: percentile(&latencies, 0.50),
                p95_us: percentile(&latencies, 0.95),
                p99_us: percentile(&latencies, 0.99),
                mean_batch: snap.mean_batch(),
                fused: reference.model.fused_layers() > 0,
                weight_bytes: reference.model.weight_bytes(),
            });
            server.shutdown();
            engine.shutdown();
        }
    }

    let json = render_json(
        quick,
        connections,
        per_conn,
        &cells,
        store.as_ref(),
        fleet.as_ref(),
        reactor.as_ref(),
    );
    let mut rendered = render_table(&cells);
    if let Some(f) = &fleet {
        rendered = format!("{rendered}\n{}", f.rendered);
    }
    if let Some(r) = &reactor {
        rendered = format!("{rendered}\n{}", r.rendered);
    }
    Serving {
        cells,
        store,
        fleet,
        reactor,
        json,
        rendered,
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    connections: usize,
    per_conn: usize,
    cells: &[ServeCell],
    store: Option<&StoreBench>,
    fleet: Option<&crate::fleet::FleetBench>,
    reactor: Option<&ReactorBench>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve_load\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"connections\": {connections},\n"));
    out.push_str(&format!("  \"requests_per_connection\": {per_conn},\n"));
    out.push_str(&format!(
        "  \"model\": {{\"family\": \"Transformer\", \"dims\": {:?}, \"seed\": {}}},\n",
        DIMS, MODEL_SEED
    ));
    if let Some(s) = store {
        out.push_str(&format!(
            "  \"store\": {{\"variants\": {}, \"cold_register_us\": {}, \
             \"warm_open_wal_us\": {}, \"warm_open_ckpt_us\": {}, \
             \"bit_identical\": {}}},\n",
            s.variants,
            s.cold_register_us,
            s.warm_open_wal_us,
            s.warm_open_ckpt_us,
            s.bit_identical,
        ));
    }
    if let Some(f) = fleet {
        out.push_str(&format!("  \"fleet\": {},\n", f.json_section));
    }
    if let Some(r) = reactor {
        out.push_str(&format!(
            "  \"reactor\": {{\"bit_identical\": {}, \"ladder\": [\n",
            r.bit_identical
        ));
        for (i, c) in r.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"connections\": {}, \"requests\": {}, \"completed\": {}, \
                 \"failed\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {}, \
                 \"p95_us\": {}, \"p99_us\": {}}}{}\n",
                c.connections,
                c.requests,
                c.completed,
                c.failed,
                c.throughput_rps,
                c.p50_us,
                c.p95_us,
                c.p99_us,
                if i + 1 < r.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]},\n");
    }
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"weight_format\": \"{}\", \"act_format\": \"{}\", \
             \"max_batch\": {}, \"requests\": {}, \"completed\": {}, \
             \"shed\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \
             \"p99_us\": {}, \"mean_batch\": {:.3}, \"fused\": {}, \"weight_bytes\": {}}}{}\n",
            c.variant,
            c.weight_format,
            c.act_format,
            c.max_batch,
            c.requests,
            c.completed,
            c.shed,
            c.throughput_rps,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            c.mean_batch,
            c.fused,
            c.weight_bytes,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_table(cells: &[ServeCell]) -> String {
    let mut t = TextTable::new([
        "variant",
        "batch",
        "rps",
        "p50_us",
        "p95_us",
        "p99_us",
        "mean_batch",
        "shed",
        "fused",
        "w_kib",
    ]);
    for c in cells {
        t.row([
            c.variant.clone(),
            c.max_batch.to_string(),
            format!("{:.0}", c.throughput_rps),
            c.p50_us.to_string(),
            c.p95_us.to_string(),
            c.p99_us.to_string(),
            format!("{:.2}", c.mean_batch),
            c.shed.to_string(),
            if c.fused { "yes" } else { "no" }.to_string(),
            format!("{:.0}", c.weight_bytes as f64 / 1024.0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_small_samples() {
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&s, 0.50), 60);
        assert_eq!(percentile(&s, 0.95), 100);
        assert_eq!(percentile(&s, 0.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quick_and_full_shapes() {
        assert_eq!(variant_specs(true).len(), 3);
        assert_eq!(variant_specs(false).len(), 8);
        assert_eq!(batch_configs(true).len(), 2);
        assert_eq!(batch_configs(false).len(), 3);
        // Quick mode keeps the fused-vs-dequantize comparison pair.
        assert!(variant_specs(true).iter().any(|s| s.fused));
        assert!(variant_specs(true)
            .iter()
            .any(|s| !s.fused && s.weight_format == Some((FormatKind::AdaptivFloat, 8))));
    }
}
