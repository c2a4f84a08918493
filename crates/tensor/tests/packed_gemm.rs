//! Bit-identity of the fused packed-weight GEMM against the dense
//! blocked matmul it replaces, across widths, codebooks, batch sizes,
//! and shapes that do and don't divide the kernel's tile sizes.

use adaptivfloat::{AdaptivFloat, AdaptivParams, Uniform};
use af_tensor::{PackedDecode, PackedGemm, PackedGemmScratch, Tensor};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn lhs(m: usize, k: usize, seed: u64) -> Vec<f32> {
    (0..m * k)
        .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 7) as f32 * 1.3e-9).sin() * 2.0)
        .collect()
}

fn codes(k: usize, n: usize, width: u32, seed: u64) -> Vec<u32> {
    (0..k * n)
        .map(|i| {
            (((i as u64).wrapping_add(seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
                & ((1u32 << width) - 1)
        })
        .collect()
}

/// AdaptivFloat decode table at the paper's field split.
fn af_table(width: u32, exp_bias: i32) -> Vec<f32> {
    let e = 3.min(width - 1);
    let af = AdaptivFloat::new(width, e).unwrap();
    let ap = AdaptivParams {
        n: width,
        e,
        exp_bias,
    };
    (0..1u32 << width).map(|c| af.decode_with(&ap, c)).collect()
}

fn uniform_table(width: u32, scale: f64) -> Vec<f32> {
    let uni = Uniform::new(width).unwrap();
    (0..1u32 << width)
        .map(|c| uni.decode_code(scale, c))
        .collect()
}

fn check(m: usize, k: usize, n: usize, width: u32, table: Vec<f32>) {
    let codes = codes(k, n, width, (m * k * n) as u64);
    let pg = PackedGemm::build(k, n, width, &codes, table, PackedDecode::Table);
    let dense = Tensor::from_vec(pg.dequantize(), &[k, n]);
    let a = lhs(m, k, 0x5EED);
    let mut want = vec![0.0f32; m * n];
    Tensor::matmul_slice_into(&a, m, k, &dense, &mut want);
    let mut got = vec![0.0f32; m * n];
    let mut scratch = PackedGemmScratch::default();
    pg.matmul_into(&a, m, &mut got, &mut scratch);
    assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n} width={width}");
}

/// Every batch size the micro-batcher can form, both widths, both
/// served codebook kinds, on a shape that doesn't divide KC=128 / NC=512.
#[test]
fn fused_gemm_matches_dense_at_every_batch_size() {
    for width in [4u32, 8] {
        for m in [1usize, 2, 3, 5, 8, 17] {
            check(m, 133, 517, width, af_table(width, -10));
            check(m, 133, 517, width, uniform_table(width, 0.031_25));
        }
    }
}

/// Shapes that exactly hit, and barely exceed, the tile boundaries.
#[test]
fn fused_gemm_handles_tile_boundary_shapes() {
    for (k, n) in [(1, 1), (128, 512), (129, 513), (127, 511), (256, 1024)] {
        check(3, k, n, 8, af_table(8, -6));
    }
}

/// Any codebook decodes bit for bit: a table holding `-0.0`,
/// subnormals, `±f32::MAX` and mixed signs, at both widths, on row
/// lengths that leave every vector tail (1, 7, 9 and 517 columns).
#[test]
fn table_decode_is_bit_exact_for_any_codebook() {
    let specials = [
        -0.0f32,
        0.0,
        f32::from_bits(1),
        -f32::from_bits(0x007f_ffff),
        f32::MAX,
        -f32::MAX,
        f32::MIN_POSITIVE,
        -1.5,
    ];
    for width in [4u32, 8] {
        let table: Vec<f32> = (0..1usize << width)
            .map(|c| match specials.get(c) {
                Some(&v) => v,
                None => (c as f32 - 100.0) * 0.37,
            })
            .collect();
        for n in [1usize, 7, 9, 517] {
            for m in [1usize, 3] {
                let k = 5;
                let codes = codes(k, n, width, (m * n) as u64);
                let pg = PackedGemm::build(k, n, width, &codes, table.clone(), PackedDecode::Table);
                let deq = pg.dequantize();
                let want: Vec<f32> = codes.iter().map(|&c| table[c as usize]).collect();
                assert_eq!(bits(&deq), bits(&want), "dequantize width={width} n={n}");
                // Small activations keep every product and sum finite.
                let a: Vec<f32> = lhs(m, k, 0xC0DE).iter().map(|v| v * 1e-3).collect();
                let dense = Tensor::from_vec(deq, &[k, n]);
                let mut want = vec![0.0f32; m * n];
                Tensor::matmul_slice_into(&a, m, k, &dense, &mut want);
                let mut got = vec![0.0f32; m * n];
                pg.matmul_into(&a, m, &mut got, &mut PackedGemmScratch::default());
                assert_eq!(bits(&got), bits(&want), "matmul width={width} n={n} m={m}");
            }
        }
    }
}

proptest! {
    /// Random shapes/widths/biases: fused output is always bit-identical
    /// to dequantize-then-dense-matmul.
    #[test]
    fn fused_gemm_is_bit_identical_randomly(
        m in 1usize..6,
        k in 1usize..200,
        n in 1usize..180,
        wide in 0u8..2,
        exp_bias in -20i32..5,
    ) {
        let width = if wide == 1 { 8 } else { 4 };
        check(m, k, n, width, af_table(width, exp_bias));
    }
}
