//! End-to-end bit-identity of the fused quantized-domain GEMM: a
//! [`FrozenMlp`] with packed weights must answer every request with
//! exactly the bits the dense dequantize-then-matmul model serves, at
//! every batch size (the serving engine's micro-batcher varies it per
//! tick) and under any thread count (the fused kernel is serial, the
//! dense one is not — identical results are what make that a pure
//! implementation detail).

use adaptivfloat::FormatKind;
use af_models::{BatchScratch, FrozenMlp, ModelFamily};

const DIMS: &[usize] = &[40, 96, 96, 24];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn build_pair(kind: FormatKind, n: u32) -> (FrozenMlp, FrozenMlp) {
    let dense = FrozenMlp::synthesize(ModelFamily::Transformer, 0xF00D, DIMS)
        .quantize_weights(kind, n)
        .unwrap();
    let fused = FrozenMlp::synthesize(ModelFamily::Transformer, 0xF00D, DIMS)
        .quantize_weights(kind, n)
        .unwrap()
        .with_fused_gemm();
    (dense, fused)
}

#[test]
fn fused_matches_dense_at_every_batch_size() {
    for (kind, n) in [
        (FormatKind::AdaptivFloat, 8),
        (FormatKind::AdaptivFloat, 4),
        (FormatKind::Uniform, 8),
        (FormatKind::Uniform, 4),
    ] {
        let (dense, fused) = build_pair(kind, n);
        assert_eq!(fused.fused_layers(), fused.depth(), "{kind} n={n}");
        assert_eq!(dense.fused_layers(), 0);
        let mut ds = BatchScratch::new();
        let mut fs = BatchScratch::new();
        for rows in 1..=9 {
            let x = FrozenMlp::synth_inputs(rows as u64 * 31 + 7, rows, DIMS[0]);
            let want = dense.evaluate_batch_into(x.data(), rows, &mut ds).to_vec();
            let got = fused.evaluate_batch_into(x.data(), rows, &mut fs).to_vec();
            assert_eq!(bits(&got), bits(&want), "{kind} n={n} rows={rows}");
        }
    }
}

#[test]
fn fused_layers_keep_only_codes_that_decode_to_the_served_weights() {
    // A fused layer holds no f32 matrix: weight_data decodes its packed
    // codes, and must give back the pre-fusion weights bit for bit. The
    // per-sample evaluate() multiplies by those decoded values in its own
    // naive loop, so it must agree with the unfused twin and with the
    // fused batch kernel at b=1 and b=16.
    for (kind, n) in [
        (FormatKind::AdaptivFloat, 8),
        (FormatKind::AdaptivFloat, 4),
        (FormatKind::Uniform, 8),
    ] {
        let (dense, fused) = build_pair(kind, n);
        for l in 0..dense.depth() {
            let ((dw, ds), (fw, fs)) = (dense.weight_data(l), fused.weight_data(l));
            assert_eq!(ds, fs, "{kind} n={n} layer {l} shape");
            assert_eq!(fs, fused.weight_shape(l));
            assert_eq!(bits(&fw), bits(&dw), "{kind} n={n} layer {l}");
        }
        let mut scratch = BatchScratch::new();
        for rows in [1, 16] {
            let x = FrozenMlp::synth_inputs(rows as u64 + 0xB17, rows, DIMS[0]);
            let batch = fused
                .evaluate_batch_into(x.data(), rows, &mut scratch)
                .to_vec();
            for r in 0..rows {
                let one = fused.evaluate(x.row(r));
                assert_eq!(bits(&one), bits(&dense.evaluate(x.row(r))), "{kind} n={n}");
                assert_eq!(
                    bits(&one),
                    bits(&batch[r * fused.out_dim()..(r + 1) * fused.out_dim()]),
                    "{kind} n={n} b={rows} row {r}"
                );
            }
        }
    }
}

#[test]
fn fused_matches_per_sample_reference_with_act_quant() {
    // The per-sample evaluate() multiplies by values the codebook
    // decodes, in its own naive loop, never through the fused kernel, so
    // this cross-checks the fused batch kernel against independently
    // written code — the same invariant frozen_batch.rs pins for dense
    // models. Fusing before calibrating also exercises calibration over
    // packed layers.
    let calib = FrozenMlp::synth_inputs(99, 32, DIMS[0]);
    let fused = FrozenMlp::synthesize(ModelFamily::Seq2Seq, 0xBEEF, DIMS)
        .quantize_weights(FormatKind::AdaptivFloat, 8)
        .unwrap()
        .with_fused_gemm()
        .with_act_quant(FormatKind::AdaptivFloat, 8, &calib)
        .unwrap();
    assert_eq!(fused.fused_layers(), fused.depth());
    let rows = 6;
    let x = FrozenMlp::synth_inputs(5, rows, DIMS[0]);
    let mut scratch = BatchScratch::new();
    let batch = fused
        .evaluate_batch_into(x.data(), rows, &mut scratch)
        .to_vec();
    for r in 0..rows {
        let one = fused.evaluate(x.row(r));
        assert_eq!(
            bits(&one),
            bits(&batch[r * fused.out_dim()..(r + 1) * fused.out_dim()]),
            "row {r}"
        );
    }
}

#[test]
fn packed_weights_shrink_weight_traffic() {
    let (dense, fused8) = build_pair(FormatKind::AdaptivFloat, 8);
    let (_, fused4) = build_pair(FormatKind::Uniform, 4);
    assert!(
        fused8.weight_bytes() * 3 < dense.weight_bytes(),
        "8-bit codes should cut weight bytes ~4x: {} vs {}",
        fused8.weight_bytes(),
        dense.weight_bytes()
    );
    assert!(
        fused4.weight_bytes() * 6 < dense.weight_bytes(),
        "4-bit codes should cut weight bytes ~8x: {} vs {}",
        fused4.weight_bytes(),
        dense.weight_bytes()
    );
}

#[test]
#[should_panic(expected = "quantize_weights first")]
fn fused_gemm_refuses_fp32_weights() {
    FrozenMlp::synthesize(ModelFamily::ResNet, 1, &[8, 4]).with_fused_gemm();
}

#[test]
#[should_panic(expected = "no recipe")]
fn fused_gemm_refuses_swapped_weights() {
    let m = FrozenMlp::synthesize(ModelFamily::ResNet, 1, &[8, 4])
        .quantize_weights(FormatKind::AdaptivFloat, 8)
        .unwrap();
    let w = vec![m.weight_data(0).0.to_vec()];
    m.with_weight_data(w, "decoded").with_fused_gemm();
}
