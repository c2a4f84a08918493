//! The direct-index codebooks against the scalar codec and quantizer
//! they were compiled from, bit for bit: for one geometry per kind at
//! n = 8 and n = 4, every code must equal `StorageCodec::encode_one` and
//! every value the analytic plan's `execute_into_scalar`, on the vector
//! and scalar legs alike (`AF_FORCE_SCALAR=1` picks the scalar one).
//!
//! The strided sweep covers ±0, subnormals, ±∞, NaN payloads, every
//! edge of every table ±1 ulp and about a million patterns spread over
//! all 2^32. The exhaustive sweep checks all 2^32 patterns per geometry
//! (tens of seconds each):
//!
//! ```text
//! cargo test --release -p adaptivfloat --test lut_direct_index -- --ignored
//! ```

use adaptivfloat::{FixedPoint, FormatKind, NumberFormat, QuantPlan, QuantStats, StorageCodec};

/// The calibrated range every geometry is fitted to.
const MAX_ABS: f32 = 3.7;
/// Odd stride of the sampled sweep: ~1M patterns over all 2^32.
const STRIDE: u32 = 4099;

/// One codec under test with its analytic and table-backed plans.
struct Geometry {
    name: String,
    codec: StorageCodec,
    /// Below the codebook's length gate: the analytic scalar map (the
    /// bit-twiddled kernel for AdaptivFloat).
    reference: QuantPlan,
    /// Long enough for the codebook (the kernel for AdaptivFloat).
    served: QuantPlan,
}

fn geometries() -> Vec<Geometry> {
    let kinds = [
        FormatKind::AdaptivFloat,
        FormatKind::Uniform,
        FormatKind::Posit,
        FormatKind::Float,
        FormatKind::Bfp,
    ];
    let mut out = Vec::new();
    for kind in kinds {
        for n in [8u32, 4] {
            let fmt = kind.build(n).unwrap();
            let reference = fmt.plan(&QuantStats::calibrated_with_len(MAX_ABS, 1));
            let served = fmt.plan(&QuantStats::calibrated(MAX_ABS));
            let codec = StorageCodec::fit(kind, n, &[MAX_ABS]).unwrap();
            assert_eq!(codec.params(), *reference.params(), "{kind} n={n}");
            out.push(Geometry {
                name: format!("{kind} n={n}"),
                codec,
                reference,
                served,
            });
        }
    }
    out
}

/// Compare codes and values over `patterns`; the first mismatch, if any.
fn check(g: &Geometry, patterns: &[u32]) -> Result<(), String> {
    let codebook = g.codec.codebook().expect("n ≤ 8 has a codebook");
    let src: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();
    let mut codes = vec![0u32; src.len()];
    codebook.encode_into(&src, &mut codes);
    let mut want = vec![0.0f32; src.len()];
    g.reference.execute_into_scalar(&src, &mut want);
    let mut table = vec![0.0f32; src.len()];
    codebook.quantize_into(&src, &mut table);
    let mut scalar = vec![0.0f32; src.len()];
    codebook.quantize_into_scalar(&src, &mut scalar);
    let mut served = vec![0.0f32; src.len()];
    g.served.execute_into(&src, &mut served);
    for (i, &v) in src.iter().enumerate() {
        let code = g.codec.encode_one(v);
        let w = want[i].to_bits();
        let got = [table[i], scalar[i], served[i]].map(f32::to_bits);
        if codes[i] != code || codebook.encode_one(v) != code || got.iter().any(|&b| b != w) {
            return Err(format!(
                "{}: input {:#010x}: codes {:#x}/{:#x} want {code:#x}; \
                 values {got:08x?} want {w:#010x}",
                g.name,
                patterns[i],
                codes[i],
                codebook.encode_one(v),
            ));
        }
    }
    Ok(())
}

/// ±0, subnormals, ±∞, NaN payloads and every table edge ±1 ulp, on
/// both signs.
fn specials(g: &Geometry) -> Vec<u32> {
    let mut magnitudes = vec![
        0,
        1,
        2,
        3,
        0x0000_ffff,
        0x0040_0000,
        0x007f_fffe,
        0x007f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
        0x7f80_0000,
        0x7f80_0001,
        0x7fa0_0000,
        0x7fc0_0000,
        0x7fc0_0001,
        0x7fff_ffff,
    ];
    magnitudes.extend((0..0x0080_0000).step_by(0x1_0001));
    let codebook = g.codec.codebook().expect("n ≤ 8 has a codebook");
    for edge in codebook.edges() {
        magnitudes.extend([edge - 1, edge, edge + 1]);
    }
    magnitudes
        .iter()
        .flat_map(|&m| [m, m | 0x8000_0000])
        .collect()
}

#[test]
fn every_code_and_value_matches_on_specials_and_a_strided_sweep() {
    for g in geometries() {
        check(&g, &specials(&g)).unwrap();
        let strided: Vec<u32> = (0..=u32::MAX / STRIDE).map(|i| i * STRIDE).collect();
        check(&g, &strided).unwrap();
    }
}

#[test]
fn every_format_at_eight_bits_or_less_tables() {
    // A codec whose codes and values disagree (one code, two values on
    // one sign) gets no codebook and silently runs the slow scalar path;
    // no format here may fall there, at any word size or range.
    let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin() * 2.3).collect();
    for n in 2..=8u32 {
        for kind in FormatKind::ALL {
            let Ok(fmt) = kind.build(n) else { continue };
            for max_abs in [1e-3f32, 0.7, 3.7, 900.0] {
                let codec = StorageCodec::fit(kind, n, &[max_abs]).unwrap();
                assert!(codec.codebook().is_some(), "{kind} n={n} max {max_abs}");
                let plan = fmt.plan(&QuantStats::calibrated(max_abs));
                let want = kind != FormatKind::AdaptivFloat;
                assert_eq!(plan.uses_codebook(), want, "{kind} n={n} max {max_abs}");
            }
        }
        for int_bits in 0..n {
            let fixed = FixedPoint::new(n, int_bits).unwrap();
            assert!(
                fixed.plan(&QuantStats::from_slice(&data)).uses_codebook(),
                "Q{int_bits} n={n}"
            );
        }
    }
}

#[test]
fn tables_stay_small() {
    // A slot is a 4-byte threshold and two 1-byte codes, so even the
    // widest grid here (Uniform at 8 bits, ~1000 slots a sign) is small.
    for g in geometries() {
        let codebook = g.codec.codebook().unwrap();
        let bytes = codebook.resident_bytes();
        assert!(bytes < 16 << 10, "{}: {bytes} bytes", g.name);
    }
}

#[test]
#[ignore = "all 2^32 inputs per geometry; run once per change to lut.rs"]
fn every_code_and_value_matches_on_all_inputs() {
    const CHUNK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    for g in geometries() {
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let g = &g;
                scope.spawn(move || {
                    let mut chunk = t;
                    while chunk < (1u64 << 32) / CHUNK {
                        let lo = chunk * CHUNK;
                        let patterns: Vec<u32> = (lo..lo + CHUNK).map(|b| b as u32).collect();
                        check(g, &patterns).unwrap();
                        chunk += threads;
                    }
                });
            }
        });
        eprintln!(
            "{}: all 2^32 inputs match ({:.1?})",
            g.name,
            start.elapsed()
        );
    }
}
