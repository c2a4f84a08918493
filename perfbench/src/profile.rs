//! The layer profile of a traced run: each layer's public entry point,
//! timed from outside at the shapes and batch sizes the run produced,
//! plus the per-layer figures read from the run's spans and counters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use adaptivfloat::{AdaptivFloat, AdaptivParams, FormatKind, PlanParams, QuantStats, Uniform};
use af_models::{BatchScratch, FrozenMlp};
use af_serve::{Engine, ModelVariant};
use af_tensor::{PackedDecode, PackedGemm, PackedGemmScratch, Tensor};

use crate::bench::{metric, sliced_percentile, Metric, Window};
use crate::catalog::{Catalog, POOL};
use crate::measure::{median, us, Tracer};
use crate::schedule::input_pool;
use crate::wire;

/// Wall-time budget per timed entry point.
const BUDGET: Duration = Duration::from_millis(15);
/// Sequential requests of each in-process and round-trip probe.
pub const PROBES: usize = 200;

/// Replies seen by the profile that differed from the reference.
static WRONG_BITS: AtomicU64 = AtomicU64::new(0);

pub fn wrong_bits() -> u64 {
    WRONG_BITS.load(Ordering::Relaxed)
}

pub fn note_reply(ok: bool) {
    if !ok {
        WRONG_BITS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Median µs of `f` over at least 5 and at most 5000 calls, stopping once
/// `BUDGET` is spent; `prep` runs untimed before each call.
pub fn bench_us<S>(mut prep: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 5000 && started.elapsed() < BUDGET) {
        let s = prep();
        let t0 = Instant::now();
        f(s);
        samples.push(us(t0.elapsed()));
    }
    median(&mut samples)
}

/// `len` values cycling through a seeded pool row set.
fn operand(seed: u64, len: usize) -> Vec<f32> {
    input_pool(seed, 4, 64)
        .concat()
        .into_iter()
        .cycle()
        .take(len)
        .collect()
}

/// Rebuild a fused variant's packed layers from its frozen weight recipe,
/// the way the registry builds them.
fn packed_layers(model: &FrozenMlp) -> Vec<PackedGemm> {
    let (kind, n, params) = model
        .weight_quant_recipe()
        .expect("fused variants carry a weight recipe");
    (0..model.depth())
        .map(|l| {
            let (w, shape) = model.weight_data(l);
            let (table, codes, decode): (Vec<f32>, Vec<u32>, PackedDecode) = match (kind, params[l])
            {
                (FormatKind::AdaptivFloat, PlanParams::AdaptivFloat { exp_bias }) => {
                    let e = 3.min(n - 1);
                    let af = AdaptivFloat::new(n, e).expect("paper field split");
                    let ap = AdaptivParams { n, e, exp_bias };
                    (
                        (0..1u32 << n).map(|c| af.decode_with(&ap, c)).collect(),
                        w.iter().map(|&v| af.encode_with(&ap, v)).collect(),
                        PackedDecode::AdaptivFloat {
                            m: n - e - 1,
                            exp_bias,
                        },
                    )
                }
                (FormatKind::Uniform, PlanParams::Uniform { scale }) => {
                    let uni = Uniform::new(n).expect("valid word size");
                    (
                        (0..1u32 << n).map(|c| uni.decode_code(scale, c)).collect(),
                        w.iter().map(|&v| uni.encode_code(scale, v)).collect(),
                        PackedDecode::Uniform { scale },
                    )
                }
                other => panic!("no packed kernel for {other:?}"),
            };
            PackedGemm::build(shape[0], shape[1], n, &codes, table, decode)
        })
        .collect()
}

/// Quantize, GEMM and forward-pass timings, at the mean batch the run
/// produced (rounded) and at batch 1 and 16.
#[derive(Debug)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Forward pass µs at the observed batch, averaged over variants.
    pub forward_at_batch_us: f64,
}

pub fn layers(served: &[Arc<ModelVariant>], mean_batch: f64, seed: u64) -> Layers {
    let batch = (mean_batch.round() as usize).clamp(1, 64);
    let mut sizes = vec![1, 16];
    if !sizes.contains(&batch) {
        sizes.push(batch);
    }
    let mut forward = BTreeMap::<usize, Vec<f64>>::new();
    let (mut act, mut dense, mut fused) = (Vec::new(), Vec::new(), Vec::new());
    let mut dense_shapes_seen = Vec::new();
    let mut weight_bytes = 0usize;
    for v in served {
        let model = &v.model;
        weight_bytes += model.weight_bytes();
        let mut scratch = BatchScratch::new();
        let mut line = format!("profile: {} ", v.id);
        for b in sizes.iter().copied() {
            let x = operand(seed, b * model.in_dim());
            model.evaluate_batch_into(&x, b, &mut scratch);
            let t = bench_us(
                || (),
                |()| {
                    black_box(model.evaluate_batch_into(&x, b, &mut scratch));
                },
            );
            line += &format!("forward_b{b}={t:.1}us ");
            forward.entry(b).or_default().push(t);
        }
        if let Some((kind, n, maxes)) = model.act_recipe() {
            let fmt = kind.build(n).expect("served act format");
            let total: f64 = maxes
                .iter()
                .enumerate()
                .map(|(l, &m)| {
                    let plan = fmt.plan(&QuantStats::calibrated(m));
                    let x = operand(seed, batch * model.weight_data(l).1[0]);
                    bench_us(
                        || x.clone(),
                        |mut d| {
                            plan.execute_in_place(&mut d);
                            black_box(d);
                        },
                    )
                })
                .sum();
            line += &format!("act_quant_b{batch}={total:.1}us ");
            act.push(total);
        }
        let shapes: Vec<Vec<usize>> = (0..model.depth())
            .map(|l| model.weight_data(l).1.to_vec())
            .collect();
        if !dense_shapes_seen.contains(&shapes) {
            let total: f64 = (0..model.depth())
                .map(|l| {
                    let (w, shape) = model.weight_data(l);
                    let w = Tensor::from_vec(w.to_vec(), shape);
                    let (k, n) = (shape[0], shape[1]);
                    let a = operand(seed, batch * k);
                    let mut out = vec![0.0f32; batch * n];
                    bench_us(
                        || (),
                        |()| Tensor::matmul_slice_into(&a, batch, k, &w, &mut out),
                    )
                })
                .sum();
            line += &format!("gemm_dense_b{batch}={total:.1}us ");
            dense.push(total);
            dense_shapes_seen.push(shapes);
        }
        if v.spec.fused {
            let mut scratch = PackedGemmScratch::default();
            let total: f64 = packed_layers(model)
                .iter()
                .enumerate()
                .map(|(l, pg)| {
                    let (w, shape) = model.weight_data(l);
                    let a = operand(seed, batch * pg.k());
                    let mut out = vec![0.0f32; batch * pg.n()];
                    // The rebuilt kernel must reproduce the served dense GEMM.
                    let mut want = vec![0.0f32; batch * pg.n()];
                    Tensor::matmul_slice_into(
                        &a,
                        batch,
                        pg.k(),
                        &Tensor::from_vec(w.to_vec(), shape),
                        &mut want,
                    );
                    pg.matmul_into(&a, batch, &mut out, &mut scratch);
                    note_reply(
                        out.iter()
                            .zip(&want)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                    );
                    bench_us(
                        || (),
                        |()| pg.matmul_into(&a, batch, &mut out, &mut scratch),
                    )
                })
                .sum();
            line += &format!("gemm_fused_b{batch}={total:.1}us ");
            fused.push(total);
        }
        println!("{}", line.trim_end());
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!("profile: tensor.weight_bytes is computed from tensor sizes (packed code bytes for fused layers, 4 bytes per f32 weight otherwise), one copy per variant");
    Layers {
        metrics: vec![
            metric("core.act_quant_us", mean(&act), "us"),
            metric("tensor.gemm_dense_us", mean(&dense), "us"),
            metric("tensor.gemm_fused_us", mean(&fused), "us"),
            metric("tensor.weight_bytes", weight_bytes as f64, "bytes"),
            metric("models.forward_b1_us", mean(&forward[&1]), "us"),
            metric("models.forward_b16_us", mean(&forward[&16]), "us"),
        ],
        forward_at_batch_us: mean(&forward[&batch]),
    }
}

/// Batcher figures: counter deltas from the window, and enqueue and
/// residence times from sequential in-process requests through
/// `Engine::enqueue` (`engine_for(v)` serves variant `v`).
pub fn batcher_in_process(
    engine_for: &dyn Fn(usize) -> Arc<Engine>,
    catalog: &Catalog,
    window: &Window,
    forward_at_batch_us: f64,
) -> Vec<Metric> {
    let (tx, rx) = mpsc::channel();
    let (mut enqueue, mut residence) = (Vec::new(), Vec::new());
    for i in 0..PROBES {
        let (v, x) = (i % catalog.specs.len(), (i * 7) % POOL);
        let engine = engine_for(v);
        let input = catalog.inputs[v][x].clone();
        let t0 = Instant::now();
        engine
            .enqueue(
                &catalog.specs[v].id,
                input,
                Duration::from_secs(2),
                i as u64,
                &tx,
            )
            .expect("profile enqueue");
        let t1 = Instant::now();
        let (_, reply) = rx.recv().expect("profile reply");
        let t2 = Instant::now();
        note_reply(reply.is_ok_and(|y| catalog.matches(v, x, &y)));
        enqueue.push(us(t1 - t0));
        residence.push(us(t2 - t0));
    }
    batcher(
        window,
        median(&mut enqueue),
        median(&mut residence),
        forward_at_batch_us,
    )
}

fn batcher(window: &Window, enqueue_us: f64, residence_us: f64, forward_us: f64) -> Vec<Metric> {
    vec![
        metric(
            "serve.batcher.mean_batch",
            window.engine.mean_batch(),
            "requests",
        ),
        metric("serve.batcher.shed", window.engine.shed as f64, "count"),
        metric(
            "serve.batcher.expired",
            window.engine.expired as f64,
            "count",
        ),
        metric("serve.batcher.enqueue_us", enqueue_us, "us"),
        metric("serve.batcher.residence_p50_us", residence_us, "us"),
        metric("serve.batcher.wait_us", residence_us - forward_us, "us"),
    ]
}

/// Front-end figures: `/healthz` round trip, `RequestParser` cost per
/// request, and reactor events per response.
pub fn front_end(addr: SocketAddr, catalog: &Catalog, events_per_request: f64) -> Vec<Metric> {
    let mut conn = wire::connect(addr).expect("connect healthz probe");
    let mut framer = wire::ResponseFramer::default();
    let mut rtt: Vec<f64> = (0..PROBES)
        .map(|_| {
            let t0 = Instant::now();
            let (status, _) =
                wire::round_trip(&mut conn, &mut framer, wire::HEALTHZ).expect("healthz");
            assert_eq!(status, 200, "healthz answered {status}");
            us(t0.elapsed())
        })
        .collect();
    const PER_BATCH: usize = 100;
    let request = &catalog.requests[0][0];
    let mut parser = af_serve::http::RequestParser::new();
    let parse = bench_us(
        || (),
        |()| {
            for _ in 0..PER_BATCH {
                parser.feed(request);
                black_box(parser.next_request().expect("parse").expect("one request"));
            }
        },
    ) / PER_BATCH as f64;
    vec![
        metric("serve.reactor.healthz_rtt_us", median(&mut rtt), "us"),
        metric("serve.http.parse_us", parse, "us"),
        metric(
            "serve.reactor.events_per_request",
            events_per_request,
            "events",
        ),
    ]
}

/// Registration cost from the traced setups' `register` spans, the load
/// generator's own figures from the window, and the hot-swap times.
pub fn registry_and_loadgen(
    tracer: &Tracer,
    window: &Window,
    setup_spans: (u64, u64),
    swaps_ms: &[f64],
) -> Vec<Metric> {
    let mut register = tracer.durations_us("register", setup_spans.0..setup_spans.1);
    vec![
        metric(
            "serve.registry.register_ms",
            median(&mut register) / 1e3,
            "ms",
        ),
        metric("loadgen.lag_p99_ms", window.lag_p99_ms(), "ms"),
        metric(
            "loadgen.latency_samples",
            window.latencies.len() as f64,
            "count",
        ),
        metric(
            "loadgen.latency_p99_ms",
            sliced_percentile(window, 0.99),
            "ms",
        ),
        metric("writer.swap_p50_ms", median(&mut swaps_ms.to_vec()), "ms"),
    ]
}
