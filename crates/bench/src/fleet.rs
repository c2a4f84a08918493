//! Fleet scaling bench: aggregate throughput and tail latency as the
//! same model catalog is served by 1 → N consistent-hash shards.
//!
//! Each scaling point builds a fresh [`FleetRouter`] over `n` in-process
//! shards, every shard capped at **one compute slot** with a modelled
//! per-pass service time (an [`InjectedFault`] `delay` on each shard's
//! engine: a sleep inside the slot, not compute) — one engine then
//! models one accelerator's worth of compute, so aggregate throughput
//! can only grow by adding shards, not by hiding inside one process's
//! thread pool. The section records the host's parallelism next to the
//! speedup, because the sleep scales past the host's cores where real
//! compute would not. A closed
//! loop of persistent-connection clients drives the fleet over real TCP
//! through [`FleetServer`] (the same wire protocol and [`Client`] as
//! the single-node bench), each connection pinned to one model id so
//! requests exercise the ring's placement. Latencies are recorded
//! client-side and grouped by the model's **ring primary**, giving
//! per-shard percentiles next to the aggregate; the first request per
//! model is checked bit-for-bit against direct evaluation on a replica
//! registry.
//!
//! The output lands in the `"fleet"` section of `BENCH_serving.json`;
//! the headline number is `speedup_1_to_max` — aggregate throughput at
//! the largest shard count over the single-shard baseline.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivfloat::FormatKind;
use af_fleet::{FleetConfig, FleetRouter, FleetServer, HedgePolicy, ShardConfig};
use af_models::{FrozenMlp, ModelFamily};
use af_serve::{Client, EngineConfig, InjectedFault, VariantSpec};

use crate::render::TextTable;
use crate::serving::percentile;

/// Layer widths of every fleet model — small enough that the modelled
/// service time (not arithmetic) dominates a pass, which is what makes
/// the scaling read honest: throughput is bounded by slots × delay.
pub const FLEET_DIMS: [usize; 3] = [24, 48, 12];

/// Models in the fleet catalog. Enough keys that the ring spreads
/// replica sets across every shard at the largest scaling point.
pub const FLEET_MODELS: usize = 16;

/// Synthesis seed base; model `k` uses `FLEET_SEED + k` so every id
/// serves distinct weights (the bit-identity probes would otherwise
/// pass vacuously).
pub const FLEET_SEED: u64 = 0xF1EE_0CAF;

/// Modelled per-pass service time on every shard (the "accelerator"):
/// a sleep on the shard's compute worker, not compute.
const SERVICE_DELAY: Duration = Duration::from_micros(400);

/// Hedge budget for the bench fleet: far above the saturated
/// closed-loop latency, so the bench measures shard *capacity* rather
/// than tail-cutting (hedging under a straggler is `tests/fleet_e2e.rs`
/// territory).
const HEDGE_BUDGET: Duration = Duration::from_millis(300);

/// Shape of one fleet scaling run.
#[derive(Debug, Clone, Copy)]
pub struct FleetOpts {
    /// Largest shard count (the scaling sweep runs powers of two up to
    /// and including this).
    pub max_shards: usize,
    /// Replicas per model (R).
    pub replicas: usize,
    /// Concurrent closed-loop client connections.
    pub connections: usize,
    /// Timed requests per connection.
    pub per_conn: usize,
}

impl FleetOpts {
    /// Defaults by mode: quick trims the client herd for CI, the full
    /// run drives the high-connection configuration (256 concurrent
    /// closed-loop clients).
    pub fn for_mode(quick: bool) -> FleetOpts {
        if quick {
            FleetOpts {
                max_shards: 4,
                replicas: 2,
                connections: 32,
                per_conn: 12,
            }
        } else {
            FleetOpts {
                max_shards: 4,
                replicas: 2,
                connections: 256,
                per_conn: 24,
            }
        }
    }
}

/// Per-shard line of one scaling point: client latencies grouped by
/// ring primary, served counts from the shard's own engine.
#[derive(Debug, Clone, Copy)]
pub struct ShardLine {
    /// Shard index.
    pub shard: usize,
    /// Models whose ring primary is this shard.
    pub primary_models: usize,
    /// Timed client requests whose model is primaried here (the actual
    /// serving shard may be the secondary under load-aware selection).
    pub requests: usize,
    /// Requests this shard's engine completed (includes hedges and
    /// failovers that landed here).
    pub completed: u64,
    /// Median latency of this shard's primary traffic, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
}

/// One scaling point: the whole catalog served by `shards` shards.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Shard count of this point.
    pub shards: usize,
    /// Requests entering the router (timed + bit-identity probes).
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed (the drive panics on any client-side error, so
    /// a finished point always reports zero).
    pub failed: u64,
    /// Hedge attempts launched.
    pub hedges: u64,
    /// Requests won by a hedge.
    pub hedge_wins: u64,
    /// Immediate failovers on transient shard errors.
    pub failovers: u64,
    /// Completed requests per second over the point's wall time.
    pub throughput_rps: f64,
    /// Aggregate median latency, microseconds.
    pub p50_us: u64,
    /// Aggregate 95th percentile, microseconds.
    pub p95_us: u64,
    /// Aggregate 99th percentile, microseconds.
    pub p99_us: u64,
    /// Throughput relative to the 1-shard point of the same run.
    pub speedup_vs_1shard: f64,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardLine>,
}

/// Fleet scaling output: points, the JSON fragment for
/// `BENCH_serving.json`, and a rendered table pair.
#[derive(Debug, Clone)]
pub struct FleetBench {
    /// The run's shape.
    pub opts: FleetOpts,
    /// One point per shard count, ascending.
    pub points: Vec<FleetPoint>,
    /// Aggregate throughput at `max_shards` over the 1-shard baseline —
    /// the number the acceptance gate reads.
    pub speedup_1_to_max: f64,
    /// The `"fleet"` JSON object (self-contained, single value).
    pub json_section: String,
    /// Rendered scaling + per-shard tables.
    pub rendered: String,
}

/// The shard counts a sweep visits: powers of two up to `max_shards`,
/// plus `max_shards` itself when it is not a power of two.
pub fn scaling_points(max_shards: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut n = 1;
    while n <= max_shards {
        points.push(n);
        n *= 2;
    }
    if *points.last().unwrap_or(&0) != max_shards {
        points.push(max_shards);
    }
    points
}

/// Run the fleet scaling sweep with mode defaults.
///
/// # Panics
///
/// Panics if a shard fails to warm-start, a model fails to register,
/// any client request errors, or a served response is not bit-identical
/// to direct evaluation.
pub fn run(quick: bool) -> FleetBench {
    run_with(FleetOpts::for_mode(quick))
}

/// Run the fleet scaling sweep with explicit options (the
/// `serve_load --shards/--replicas/--connections` path).
///
/// # Panics
///
/// See [`run`].
pub fn run_with(opts: FleetOpts) -> FleetBench {
    assert!(opts.max_shards >= 1, "need at least one shard");
    assert!(opts.replicas >= 1, "need at least one replica");
    let mut points: Vec<FleetPoint> = scaling_points(opts.max_shards)
        .into_iter()
        .map(|n| run_point(n, opts))
        .collect();
    let base = points[0].throughput_rps.max(1e-9);
    for p in &mut points {
        p.speedup_vs_1shard = p.throughput_rps / base;
    }
    let speedup_1_to_max = points.last().expect("at least one point").speedup_vs_1shard;
    let json_section = render_json(opts, &points, speedup_1_to_max);
    let rendered = render_tables(&points);
    FleetBench {
        opts,
        points,
        speedup_1_to_max,
        json_section,
        rendered,
    }
}

fn shard_config(connections: usize) -> ShardConfig {
    ShardConfig {
        engine: EngineConfig {
            // One request per pass: throughput is then slots/delay per
            // shard and the sweep measures shard count, not batching.
            max_batch: 1,
            // The whole closed loop can park on one shard's queues
            // without tripping admission control.
            queue_cap: connections * 2,
            compute_slots: Some(1),
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    }
}

fn run_point(shards: usize, opts: FleetOpts) -> FleetPoint {
    let root = std::env::temp_dir().join(format!("af-bench-fleet-{}-{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let router = Arc::new(FleetRouter::new(
        &root,
        FleetConfig {
            replicas: opts.replicas,
            hedge: HedgePolicy {
                budget: HEDGE_BUDGET,
                ..HedgePolicy::default()
            },
            default_deadline: Duration::from_secs(10),
            ..FleetConfig::default()
        },
    ));
    for i in 0..shards {
        let shard = router
            .join(i, shard_config(opts.connections))
            .expect("join bench shard");
        shard
            .engine()
            .inject_fault(Some(InjectedFault::slow(SERVICE_DELAY)));
    }

    // The catalog: FLEET_MODELS quantized variants, distinct weights.
    let mut models: Vec<(String, usize)> = Vec::with_capacity(FLEET_MODELS);
    for k in 0..FLEET_MODELS {
        let spec = VariantSpec::quantized(
            &format!("fleet/adaptivfloat8-{k:02}"),
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            FLEET_SEED + k as u64,
            &FLEET_DIMS,
        );
        let placement = router.register_model(&spec).expect("register fleet model");
        models.push((spec.id.clone(), placement[0]));
    }

    // One bit-identity probe per model, computed against a replica's
    // own recovered registry (every replica serves identical bits).
    let probes: Vec<(String, usize, Vec<f32>, Vec<u32>)> = models
        .iter()
        .map(|(id, primary)| {
            let shard = router.shard(*primary).expect("primary shard live");
            let variant = shard.engine().registry().get(id).expect("placed variant");
            let x = FrozenMlp::synth_inputs(4000 + *primary as u64, 1, FLEET_DIMS[0]);
            let want: Vec<u32> = variant
                .model
                .evaluate(x.row(0))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (id.clone(), *primary, x.row(0).to_vec(), want)
        })
        .collect();

    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).expect("bind fleet server");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..opts.connections)
        .map(|c| {
            let addr = server.addr();
            let (id, primary, probe_in, probe_want) = probes[c % probes.len()].clone();
            let probe = c < probes.len();
            let per_conn = opts.per_conn;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect fleet client");
                if probe {
                    let got = client.infer(&id, &probe_in).expect("fleet probe request");
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got, probe_want,
                        "fleet-served output must match direct evaluation"
                    );
                }
                let inputs = FrozenMlp::synth_inputs(5000 + c as u64, 8, FLEET_DIMS[0]);
                let mut latencies = Vec::with_capacity(per_conn);
                for r in 0..per_conn {
                    let input = inputs.row(r % inputs.rows());
                    let t = Instant::now();
                    client.infer(&id, input).expect("fleet load request");
                    latencies.push(t.elapsed().as_micros() as u64);
                }
                (primary, latencies)
            })
        })
        .collect();
    let mut by_primary: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut all: Vec<u64> = Vec::with_capacity(opts.connections * opts.per_conn);
    for h in handles {
        let (primary, latencies) = h.join().expect("fleet connection panicked");
        all.extend_from_slice(&latencies);
        by_primary.entry(primary).or_default().extend(latencies);
    }
    let wall = t0.elapsed().as_secs_f64();
    let snap = router.stats().snapshot();

    let per_shard: Vec<ShardLine> = (0..shards)
        .map(|i| {
            let mut lat = by_primary.remove(&i).unwrap_or_default();
            lat.sort_unstable();
            let engine_snap = router
                .shard(i)
                .expect("bench shard live")
                .engine()
                .stats()
                .snapshot();
            ShardLine {
                shard: i,
                primary_models: models.iter().filter(|(_, p)| *p == i).count(),
                requests: lat.len(),
                completed: engine_snap.completed,
                p50_us: percentile(&lat, 0.50),
                p95_us: percentile(&lat, 0.95),
                p99_us: percentile(&lat, 0.99),
            }
        })
        .collect();
    all.sort_unstable();

    server.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    FleetPoint {
        shards,
        requests: snap.requests,
        completed: snap.completed,
        failed: snap.failed,
        hedges: snap.hedges,
        hedge_wins: snap.hedge_wins,
        failovers: snap.failovers,
        throughput_rps: snap.completed as f64 / wall.max(1e-9),
        p50_us: percentile(&all, 0.50),
        p95_us: percentile(&all, 0.95),
        p99_us: percentile(&all, 0.99),
        speedup_vs_1shard: 1.0,
        per_shard,
    }
}

fn render_json(opts: FleetOpts, points: &[FleetPoint], speedup: f64) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"replicas\": {}, \"connections\": {}, \"requests_per_connection\": {}, \
         \"models\": {}, \"service_delay_us\": {}, \"compute_slots_per_shard\": 1, \
         \"max_shards\": {}, \"speedup_1_to_max\": {:.2}, \"host_parallelism\": {}, \
         \"points\": [",
        opts.replicas,
        opts.connections,
        opts.per_conn,
        FLEET_MODELS,
        SERVICE_DELAY.as_micros(),
        opts.max_shards,
        speedup,
        host_parallelism(),
    ));
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let mut shards = String::new();
        for (j, s) in p.per_shard.iter().enumerate() {
            if j > 0 {
                shards.push_str(", ");
            }
            shards.push_str(&format!(
                "{{\"shard\": {}, \"primary_models\": {}, \"requests\": {}, \
                 \"completed\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
                s.shard, s.primary_models, s.requests, s.completed, s.p50_us, s.p95_us, s.p99_us,
            ));
        }
        out.push_str(&format!(
            "{{\"shards\": {}, \"requests\": {}, \"completed\": {}, \"failed\": {}, \
             \"hedges\": {}, \"hedge_wins\": {}, \"failovers\": {}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"speedup_vs_1shard\": {:.2}, \"per_shard\": [{}]}}",
            p.shards,
            p.requests,
            p.completed,
            p.failed,
            p.hedges,
            p.hedge_wins,
            p.failovers,
            p.throughput_rps,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.speedup_vs_1shard,
            shards,
        ));
    }
    out.push_str("]}");
    out
}

fn render_tables(points: &[FleetPoint]) -> String {
    let mut t = TextTable::new([
        "shards",
        "rps",
        "speedup",
        "p50_us",
        "p95_us",
        "p99_us",
        "hedges",
        "failovers",
        "failed",
    ]);
    for p in points {
        t.row([
            p.shards.to_string(),
            format!("{:.0}", p.throughput_rps),
            format!("{:.2}x", p.speedup_vs_1shard),
            p.p50_us.to_string(),
            p.p95_us.to_string(),
            p.p99_us.to_string(),
            p.hedges.to_string(),
            p.failovers.to_string(),
            p.failed.to_string(),
        ]);
    }
    let mut s = TextTable::new([
        "point",
        "shard",
        "primary_models",
        "requests",
        "completed",
        "p50_us",
        "p95_us",
        "p99_us",
    ]);
    for p in points {
        for line in &p.per_shard {
            s.row([
                format!("n={}", p.shards),
                line.shard.to_string(),
                line.primary_models.to_string(),
                line.requests.to_string(),
                line.completed.to_string(),
                line.p50_us.to_string(),
                line.p95_us.to_string(),
                line.p99_us.to_string(),
            ]);
        }
    }
    format!(
        "Fleet scaling (per-pass service time: {} µs modelled sleep per shard, not compute; \
         host parallelism {}):\n{}\n{}",
        SERVICE_DELAY.as_micros(),
        host_parallelism(),
        t.render(),
        s.render()
    )
}

/// Cores this process may run on — the ceiling real compute would hit
/// long before the modelled service time does.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_points_cover_powers_of_two_and_the_max() {
        assert_eq!(scaling_points(1), vec![1]);
        assert_eq!(scaling_points(4), vec![1, 2, 4]);
        assert_eq!(scaling_points(6), vec![1, 2, 4, 6]);
        assert_eq!(scaling_points(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn json_section_is_a_single_object() {
        let p = FleetPoint {
            shards: 1,
            requests: 10,
            completed: 10,
            failed: 0,
            hedges: 0,
            hedge_wins: 0,
            failovers: 0,
            throughput_rps: 123.4,
            p50_us: 10,
            p95_us: 20,
            p99_us: 30,
            speedup_vs_1shard: 1.0,
            per_shard: vec![ShardLine {
                shard: 0,
                primary_models: FLEET_MODELS,
                requests: 10,
                completed: 10,
                p50_us: 10,
                p95_us: 20,
                p99_us: 30,
            }],
        };
        let opts = FleetOpts::for_mode(true);
        let json = render_json(opts, &[p], 1.0);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"speedup_1_to_max\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"per_shard\""));
        // Balanced braces/brackets — a cheap well-formedness check
        // given the hand-built JSON.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
