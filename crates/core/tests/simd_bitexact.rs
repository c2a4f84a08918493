//! Bit-identity of every SIMD dispatch path against its scalar twin.
//!
//! The SIMD layer's contract is **exactness, not approximation**: for
//! any input — including NaN, ±∞, subnormals, and awkward lengths that
//! exercise vector remainders — the vectorized quantize, scan, LUT
//! gather, pack, decode, and GEMM microkernel paths must produce the same bits as
//! the scalar code they replace. `scripts/ci.sh` runs this suite twice,
//! once normally and once under `AF_FORCE_SCALAR=1`, so both dispatch
//! legs stay pinned.

use adaptivfloat::{FormatKind, PackedCodes, QuantStats};
use proptest::prelude::*;

/// Lengths around every lane boundary the dispatcher cares about
/// (AVX2 = 8 lanes, SSE4.1 = 4), plus a large length with a remainder.
const AWKWARD_LENS: [usize; 9] = [0, 1, 3, 4, 5, 7, 8, 9, 1037];

/// A value pool covering specials, extremes, and ordinary magnitudes.
fn special(i: u64) -> f32 {
    match i % 11 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::MIN_POSITIVE / 2.0, // subnormal
        6 => f32::MAX,
        7 => 1.5e-8,
        _ => ((i as f32) * 0.731).sin() * 3.7,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Bits with every NaN folded to one pattern. Rust leaves the sign and
/// payload of an arithmetic NaN unspecified (the compiler may commute a
/// multiply or an add), so arithmetic kernels are pinned bit for bit on
/// every other value and by NaN-ness on NaNs.
fn nan_canonical_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|f| {
            if f.is_nan() {
                f32::NAN.to_bits()
            } else {
                f.to_bits()
            }
        })
        .collect()
}

/// Every format × word size × awkward length: the plan's dispatched
/// `execute_into` must match its `execute_into_scalar` twin bit for bit,
/// and in-place execution must agree with both.
#[test]
fn plan_execution_is_bit_identical_across_dispatch() {
    for kind in FormatKind::ALL {
        for n in [4u32, 6, 8] {
            let fmt = match kind.build(n) {
                Ok(f) => f,
                Err(_) => continue,
            };
            for len in AWKWARD_LENS {
                for seed in 0..3u64 {
                    let data: Vec<f32> = (0..len as u64)
                        .map(|i| special(i * 7 + seed * 131))
                        .collect();
                    let plan = fmt.plan(&QuantStats::from_slice(&data));
                    let mut dispatched = vec![0.0f32; len];
                    let mut scalar = vec![0.0f32; len];
                    plan.execute_into(&data, &mut dispatched);
                    plan.execute_into_scalar(&data, &mut scalar);
                    assert_eq!(
                        bits(&dispatched),
                        bits(&scalar),
                        "{kind} n={n} len={len} seed={seed} backend={}",
                        plan.backend_label()
                    );
                    let mut in_place = data.clone();
                    plan.execute_in_place(&mut in_place);
                    assert_eq!(
                        bits(&in_place),
                        bits(&scalar),
                        "in-place {kind} n={n} len={len} seed={seed}"
                    );
                }
            }
        }
    }
}

/// The fused max-abs scan (used by QuantStats and the fast kernels)
/// matches an elementwise reference fold on any input.
fn scan_reference(data: &[f32]) -> (u32, Option<usize>) {
    let mut max = 0u32;
    let mut first_nf = None;
    for (i, &v) in data.iter().enumerate() {
        let b = v.to_bits() & 0x7fff_ffff;
        if b >= 0x7f80_0000 {
            if first_nf.is_none() {
                first_nf = Some(i);
            }
        } else if b > max {
            max = b;
        }
    }
    (max, first_nf)
}

proptest! {
    #[test]
    fn scan_abs_matches_reference_fold(
        raw in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let data: Vec<f32> = raw.iter().map(|&i| special(i)).collect();
        prop_assert_eq!(adaptivfloat::simd::scan_abs(&data), scan_reference(&data));
    }

    /// The GEMM microkernel against the naive ascending-depth loop on
    /// special values, at shapes around its 4-row, 8- and 16-lane and
    /// 64-wide strip boundaries.
    #[test]
    fn gemm_tile_matches_scalar_update(
        rows in 1usize..10,
        depth in 1usize..6,
        width in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a: Vec<f32> = (0..(rows * depth) as u64).map(|i| special(i * 3 + seed)).collect();
        let b: Vec<f32> = (0..(depth * width) as u64).map(|i| special(i * 5 + seed)).collect();
        let mut c: Vec<f32> = (0..(rows * width) as u64).map(|i| special(i ^ seed)).collect();
        let mut want = c.clone();
        for i in 0..rows {
            for j in 0..width {
                for p in 0..depth {
                    want[i * width + j] += a[i * depth + p] * b[p * width + j];
                }
            }
        }
        adaptivfloat::simd::gemm_tile([rows, depth, width], &a, depth, &b, width, &mut c, width);
        prop_assert_eq!(nan_canonical_bits(&c), nan_canonical_bits(&want));
    }

    /// Bulk u32 extend + unpack round-trips against scalar push/get at
    /// the widths the SIMD fast path covers and its neighbours.
    #[test]
    fn packed_bulk_extend_matches_scalar_push(
        width_idx in 0usize..4,
        raw in prop::collection::vec(0u32..u32::MAX, 0..200),
        split in 0usize..200,
    ) {
        let width = [4u32, 7, 8, 9][width_idx];
        let mask = (1u64 << width) - 1;
        let codes: Vec<u32> = raw.iter().map(|&c| c & mask as u32).collect();
        let split = split.min(codes.len());
        let mut bulk = PackedCodes::new(width);
        // Seed with scalar pushes so the bulk path starts mid-word.
        bulk.extend_from_u32(&codes[..split]);
        bulk.extend_from_u32(&codes[split..]);
        let mut scalar = PackedCodes::new(width);
        for &c in &codes {
            scalar.push(c as u64);
        }
        prop_assert_eq!(&bulk, &scalar);
        let mut unpacked = vec![0u32; codes.len()];
        bulk.unpack_u32_into(&mut unpacked);
        prop_assert_eq!(unpacked, codes);
    }
}

/// Plans frozen from calibrated stats (the serving activation path) are
/// also dispatch-invariant — including on inputs that exceed the
/// calibrated range or are non-finite.
#[test]
fn calibrated_plans_are_bit_identical_across_dispatch() {
    for kind in FormatKind::ALL {
        let fmt = kind.build(8).expect("all kinds build at n=8");
        let plan = fmt.plan(&QuantStats::calibrated(2.5));
        for len in AWKWARD_LENS {
            let data: Vec<f32> = (0..len as u64).map(|i| special(i * 13 + 5)).collect();
            let mut dispatched = vec![0.0f32; len];
            let mut scalar = vec![0.0f32; len];
            plan.execute_into(&data, &mut dispatched);
            plan.execute_into_scalar(&data, &mut scalar);
            assert_eq!(bits(&dispatched), bits(&scalar), "{kind} len={len}");
        }
    }
}

/// The capability report is coherent with the environment toggle.
#[test]
fn simd_report_reflects_forced_scalar() {
    let report = adaptivfloat::simd::report();
    if std::env::var("AF_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        assert!(report.forced_scalar);
        assert_eq!(report.isa, adaptivfloat::Isa::Scalar);
        assert_eq!(report.lanes, 1);
    }
    assert!(report.to_json().contains("\"isa\""));
}
