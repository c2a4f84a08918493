//! Both GEMMs against a naive oracle.
//!
//! The dense [`Tensor::matmul_slice_into`] and the packed
//! [`PackedGemm::matmul_into`] share one microkernel, so comparing them
//! with each other cannot catch a fault in it. Here each is checked
//! against the plain ascending-`k` scalar loop — accumulator starts at
//! `+0.0`, then `acc + a · b` per step — on inputs laced with ±0,
//! subnormals, ±∞ and NaN, at shapes on both sides of every register
//! tile (4 rows, 8/16/64 columns) and cache tile (`KC = 128`,
//! `NC = 512`) boundary.
//!
//! Outputs must match bit for bit, except that all NaNs count as one:
//! Rust leaves the sign and payload of an arithmetic NaN unspecified.
//! `scripts/ci.sh` also runs this suite under `AF_NUM_THREADS=1` and
//! `AF_FORCE_SCALAR=1`, so the serial split and the portable kernel are
//! held to the same oracle.

use af_tensor::{PackedDecode, PackedGemm, PackedGemmScratch, Tensor};
use proptest::prelude::*;

const MS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64];
const KS: [usize; 6] = [1, 7, 127, 128, 129, 300];
const NS: [usize; 13] = [1, 7, 8, 9, 15, 16, 17, 48, 63, 64, 65, 192, 513];

/// An ordinary value most of the time; about one in sixteen is a
/// special (±0, a subnormal, ±∞, NaN), so specials meet ordinary sums
/// without turning every output into NaN.
fn value(i: u64) -> f32 {
    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    match h % 128 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::MIN_POSITIVE / 3.0,
        3 => -f32::MIN_POSITIVE / 5.0,
        4 => 1.0e-40,
        5 => f32::INFINITY,
        6 => f32::NEG_INFINITY,
        7 => f32::NAN,
        _ => ((h as f32) * 1.37e-3).sin() * 2.5,
    }
}

/// A 256-entry codebook holding every special once and ordinary values
/// elsewhere, so the packed operand carries them too.
fn codebook() -> Vec<f32> {
    let specials = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 3.0,
        -1.0e-40,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    (0..256u32)
        .map(|c| match specials.get(c as usize) {
            Some(&v) => v,
            None => (c as f32 - 128.0) * 0.0173 + (c as f32 * 0.7).sin() * 0.01,
        })
        .collect()
}

/// Codes that hit a special about once in sixteen weights.
fn codes(k: usize, n: usize, seed: u64) -> Vec<u32> {
    (0..(k * n) as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 40;
            if h.is_multiple_of(16) {
                (h >> 4) as u32 % 7
            } else {
                7 + (h >> 4) as u32 % 249
            }
        })
        .collect()
}

/// The reference: per output element, `+0.0` then `acc + a · b` in
/// ascending `k`.
fn naive(a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn canonical(v: &[f32]) -> Vec<u32> {
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

/// Dense and packed GEMMs on one shape, each against the oracle.
fn check([m, k, n]: [usize; 3], seed: u64) {
    let a: Vec<f32> = (0..(m * k) as u64).map(|i| value(i ^ seed)).collect();
    let pg = PackedGemm::build(k, n, 8, &codes(k, n, seed), codebook(), PackedDecode::Table);
    let b = Tensor::from_vec(pg.dequantize(), &[k, n]);
    let want = canonical(&naive(&a, b.data(), [m, k, n]));

    // Garbage in `out` proves both kernels overwrite it.
    let mut dense = vec![f32::NAN; m * n];
    Tensor::matmul_slice_into(&a, m, k, &b, &mut dense);
    assert_eq!(canonical(&dense), want, "dense m={m} k={k} n={n}");

    let mut packed = vec![-1.0f32; m * n];
    pg.matmul_into(&a, m, &mut packed, &mut PackedGemmScratch::default());
    assert_eq!(canonical(&packed), want, "packed m={m} k={k} n={n}");
}

#[test]
fn both_gemms_match_the_naive_loop_on_every_tile_boundary() {
    for m in MS {
        for k in KS {
            for n in NS {
                check([m, k, n], (m * 1_000_003 + k * 1009 + n) as u64);
            }
        }
    }
}

#[test]
fn ordinary_inputs_leave_no_nan_to_hide_behind() {
    // The special-laced cases fold NaNs together; on plain finite
    // inputs every output bit is compared, with no NaN anywhere.
    let [m, k, n] = [9, 129, 65];
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
    let codes: Vec<u32> = (0..k * n).map(|i| 7 + (i as u32 * 31) % 249).collect();
    let pg = PackedGemm::build(k, n, 8, &codes, codebook(), PackedDecode::Table);
    let b = Tensor::from_vec(pg.dequantize(), &[k, n]);
    let want = naive(&a, b.data(), [m, k, n]);
    assert!(want.iter().all(|v| v.is_finite()));
    let mut dense = vec![0.0f32; m * n];
    Tensor::matmul_slice_into(&a, m, k, &b, &mut dense);
    let mut packed = vec![0.0f32; m * n];
    pg.matmul_into(&a, m, &mut packed, &mut PackedGemmScratch::default());
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&dense), bits(&want));
    assert_eq!(bits(&packed), bits(&want));
}

proptest! {
    #[test]
    fn both_gemms_match_the_naive_loop_on_random_shapes(
        m in 1usize..70,
        k in 1usize..300,
        n in 1usize..600,
        seed in 0u64..u64::MAX,
    ) {
        check([m, k, n], seed);
    }
}
