//! Kernel micro-benches: quantization throughput of every format, the
//! bit-packed codec, the bit-accurate MAC datapaths, the SIMD dispatch
//! paths against their scalar twins, and the fused packed-weight GEMM
//! against dequantize-then-dense.

use adaptivfloat::{AdaptivFloat, FormatKind, NumberFormat, PackedCodes, QuantStats, Uniform};
use af_hw::arith::{hfint_dot, int_dot_scaled};
use af_resilience::encode_word;
use af_store::crc::crc32;
use af_store::{encode_container, raw_f32_codes, SpecRecord, StoredLayer, StoredVariant};
use af_tensor::{PackedDecode, PackedGemm, PackedGemmScratch, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn data(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 2654435761) % 10007) as f32 * 0.002 - 10.0)
        .collect()
}

fn quantize_formats(c: &mut Criterion) {
    let mut g = c.benchmark_group("quantize_slice_4096");
    let w = data(4096);
    g.throughput(Throughput::Elements(4096));
    for kind in FormatKind::ALL {
        for bits in [4u32, 8] {
            let fmt = kind.build(bits).expect("valid");
            g.bench_with_input(BenchmarkId::new(kind.label(), bits), &w, |b, w| {
                b.iter(|| std::hint::black_box(fmt.quantize_slice(w)))
            });
        }
    }
    g.finish();
}

/// The headline speedup row: 1M-element AdaptivFloat<8,3> through the
/// bit-twiddled fast kernel (`quantize_slice`) vs the scalar f64
/// reference (`quantize_slice_reference`). Run with `AF_NUM_THREADS=1`
/// to measure the single-thread kernel speedup alone; the default run
/// adds the scoped-thread fan-out on top.
fn adaptivfloat_1m(c: &mut Criterion) {
    const N: usize = 1 << 20;
    let w = data(N);
    let fmt = AdaptivFloat::new(8, 3).expect("valid");
    let mut g = c.benchmark_group("adaptivfloat_1m");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_with_input(BenchmarkId::new("fast", 8), &w, |b, w| {
        b.iter(|| std::hint::black_box(fmt.quantize_slice(w)))
    });
    g.bench_with_input(BenchmarkId::new("reference", 8), &w, |b, w| {
        b.iter(|| std::hint::black_box(fmt.quantize_slice_reference(w)))
    });
    let fmt4 = AdaptivFloat::new(4, 2).expect("valid");
    g.bench_with_input(BenchmarkId::new("fast", 4), &w, |b, w| {
        b.iter(|| std::hint::black_box(fmt4.quantize_slice(w)))
    });
    g.bench_with_input(BenchmarkId::new("reference", 4), &w, |b, w| {
        b.iter(|| std::hint::black_box(fmt4.quantize_slice_reference(w)))
    });
    g.finish();
}

/// Square matmul scaling rows for the blocked parallel kernel. Elements
/// = multiply-accumulates, so `ns_per_elem` reads as ns/MAC.
fn matmul_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_square");
    for n in [64usize, 128, 256, 512] {
        let a = Tensor::from_vec(data(n * n), &[n, n]);
        let b_mat = Tensor::from_vec(data(n * n), &[n, n]);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("matmul", n), &(&a, &b_mat), |b, (x, y)| {
            b.iter(|| std::hint::black_box(x.matmul(y)))
        });
        g.bench_with_input(
            BenchmarkId::new("matmul_t", n),
            &(&a, &b_mat),
            |b, (x, y)| b.iter(|| std::hint::black_box(x.matmul_t(y))),
        );
    }
    g.finish();
}

fn codec(c: &mut Criterion) {
    let w = data(4096);
    let fmt = AdaptivFloat::new(8, 3).expect("valid");
    c.bench_function("adaptivfloat/quantize_tensor_packed_4096", |b| {
        b.iter(|| std::hint::black_box(fmt.quantize_tensor(&w).packed_bytes()))
    });
    let qt = fmt.quantize_tensor(&w);
    c.bench_function("adaptivfloat/dequantize_packed_4096", |b| {
        b.iter(|| std::hint::black_box(qt.dequantize().len()))
    });
}

/// The tentpole rows: each vector-dispatched path against the scalar
/// code it replaced, on the same frozen plan (same backend, same
/// parameters — the only difference is the instruction set). The
/// `BENCH_kernels.json` snapshot derives `simd_speedup_*` from these.
fn simd_vs_scalar(c: &mut Criterion) {
    const N: usize = 65_536;
    let w = data(N);
    let mut g = c.benchmark_group("simd_vs_scalar");
    g.throughput(Throughput::Elements(N as u64));
    // AdaptivFloat<8,3>: kernel backend (branch-free vector quantize).
    let af = FormatKind::AdaptivFloat.build(8).expect("valid");
    let plan = af.plan(&QuantStats::from_slice(&w));
    let mut out = vec![0.0f32; N];
    g.bench_function(BenchmarkId::new("quantize_adaptivfloat8", "simd"), |b| {
        b.iter(|| plan.execute_into(std::hint::black_box(&w), &mut out))
    });
    g.bench_function(BenchmarkId::new("quantize_adaptivfloat8", "scalar"), |b| {
        b.iter(|| plan.execute_into_scalar(std::hint::black_box(&w), &mut out))
    });
    // Posit<8>: LUT backend (vector binary search + gather).
    let posit = FormatKind::Posit.build(8).expect("valid");
    let plan = posit.plan(&QuantStats::from_slice(&w));
    g.bench_function(BenchmarkId::new("quantize_posit8_lut", "simd"), |b| {
        b.iter(|| plan.execute_into(std::hint::black_box(&w), &mut out))
    });
    g.bench_function(BenchmarkId::new("quantize_posit8_lut", "scalar"), |b| {
        b.iter(|| plan.execute_into_scalar(std::hint::black_box(&w), &mut out))
    });
    // Max-abs scan (the stats pass in front of every plan).
    g.bench_function(BenchmarkId::new("scan_abs", "simd"), |b| {
        b.iter(|| std::hint::black_box(adaptivfloat::simd::scan_abs(std::hint::black_box(&w))))
    });
    g.bench_function(BenchmarkId::new("scan_abs", "scalar"), |b| {
        b.iter(|| {
            std::hint::black_box(adaptivfloat::simd::scan_abs_scalar(std::hint::black_box(
                &w,
            )))
        })
    });
    // Bulk 8-bit code packing (the storage encode path).
    let codes: Vec<u32> = (0..N as u32).map(|i| i & 0xff).collect();
    g.bench_function(BenchmarkId::new("pack_u8", "simd"), |b| {
        b.iter(|| {
            let mut p = PackedCodes::new(8);
            p.extend_from_u32(std::hint::black_box(&codes));
            std::hint::black_box(p.len())
        })
    });
    g.bench_function(BenchmarkId::new("pack_u8", "scalar"), |b| {
        b.iter(|| {
            let mut p = PackedCodes::new(8);
            for &c in std::hint::black_box(&codes) {
                p.push(c as u64);
            }
            std::hint::black_box(p.len())
        })
    });
    g.finish();
}

/// Fused quantized-domain GEMM vs dequantize-then-dense at serving-like
/// shapes (batch 1 and 8 on a served 192-wide layer, plus a wide one).
/// Elements = MACs. The fused path reads `width/8` of the weight bytes
/// and decodes inside the kernel; same bits out.
fn packed_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("packed_gemm");
    let af = AdaptivFloat::new(8, 3).expect("valid");
    for (m, k, n) in [(1usize, 192usize, 192usize), (8, 192, 192), (8, 512, 1024)] {
        let w = data(k * n);
        let params = af.params_for(&w);
        let codes: Vec<u32> = w.iter().map(|&v| af.encode_with(&params, v)).collect();
        let table: Vec<f32> = (0..256u32).map(|c| af.decode_with(&params, c)).collect();
        let pg = PackedGemm::build(k, n, 8, &codes, table, PackedDecode::Table);
        let dense = Tensor::from_vec(pg.dequantize(), &[k, n]);
        let a = data(m * k);
        let mut out = vec![0.0f32; m * n];
        let mut scratch = PackedGemmScratch::default();
        g.throughput(Throughput::Elements((m * k * n) as u64));
        let label = format!("{m}x{k}x{n}");
        g.bench_function(BenchmarkId::new("fused", &label), |b| {
            b.iter(|| pg.matmul_into(std::hint::black_box(&a), m, &mut out, &mut scratch))
        });
        g.bench_function(BenchmarkId::new("dequantize_dense", &label), |b| {
            b.iter(|| {
                // What the dense serving path pays if weights arrive
                // packed: materialize f32 weights, then matmul.
                let dw = pg.dequantize();
                let t = Tensor::from_vec(dw, &[k, n]);
                Tensor::matmul_slice_into(std::hint::black_box(&a), m, k, &t, &mut out)
            })
        });
        g.bench_function(BenchmarkId::new("dense", &label), |b| {
            b.iter(|| Tensor::matmul_slice_into(std::hint::black_box(&a), m, k, &dense, &mut out))
        });
    }
    g.finish();
}

fn mac_datapaths(c: &mut Criterion) {
    let w = data(256);
    let a = data(256);
    let fmt = AdaptivFloat::new(8, 3).expect("valid");
    let wp = fmt.params_for(&w);
    let ap = fmt.params_for(&a);
    let wc: Vec<u32> = w.iter().map(|&v| fmt.encode_with(&wp, v)).collect();
    let ac: Vec<u32> = a.iter().map(|&v| fmt.encode_with(&ap, v)).collect();
    c.bench_function("pe/hfint_dot_256", |b| {
        b.iter(|| std::hint::black_box(hfint_dot(&fmt, &wp, &ap, &wc, &ac)))
    });
    let uni = Uniform::new(8).expect("valid");
    let (sw, wl) = uni.quantize_levels(&w);
    let (sa, al) = uni.quantize_levels(&a);
    c.bench_function("pe/int_dot_scaled_256", |b| {
        b.iter(|| std::hint::black_box(int_dot_scaled(&wl, &al, sw * sa, 16)))
    });
}

/// The durable store's byte kernels: the CRC-32 over a 128 KiB section,
/// SEC-DED parity for 16K storage words, and a whole FP32 container of
/// a fleet-sized model (`[64, 128, 128, 32]`, about 115 KB).
fn store_codec(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..128 * 1024u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
        .collect();
    c.bench_function("store_codec/crc32_128k", |b| {
        b.iter(|| std::hint::black_box(crc32(&bytes)))
    });
    let words: Vec<u64> = (0..16 * 1024u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    c.bench_function("store_codec/secded_protect_16k", |b| {
        b.iter(|| std::hint::black_box(words.iter().map(|&w| encode_word(w)).collect::<Vec<u8>>()))
    });
    let dims = [64usize, 128, 128, 32];
    let layers = dims
        .windows(2)
        .map(|d| StoredLayer {
            rows: d[0],
            cols: d[1],
            codec: None,
            codes: raw_f32_codes(&data(d[0] * d[1])),
        })
        .collect();
    let variant = StoredVariant {
        spec: SpecRecord {
            id: "bench/fp32".to_string(),
            family: "Transformer".to_string(),
            dims: dims.to_vec(),
            seed: 1,
            weight_format: None,
            act_format: None,
            protected: false,
            fused: false,
            format_label: "fp32".to_string(),
            generation: 0,
            rebuilds: 0,
        },
        layers,
        act: None,
    };
    c.bench_function("store_codec/encode_container_fp32", |b| {
        b.iter(|| std::hint::black_box(encode_container(&variant).len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = quantize_formats, adaptivfloat_1m, matmul_scaling, codec, mac_datapaths,
        simd_vs_scalar, packed_gemm, store_codec
}
criterion_main!(benches);
