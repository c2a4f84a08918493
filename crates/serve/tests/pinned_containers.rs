//! The bytes a registered variant stores are pinned. Each container a
//! `perfbench` workload's variants export (`encode_container` of
//! `export_variant`) must hash to the value recorded before the
//! codebook encoder replaced the value-then-index encode: one-pass codes
//! are an optimisation, never a format change. Checked twice, first with
//! the codebook cache cold (this binary's only test, so nothing warmed
//! it) and then warm.

use adaptivfloat::FormatKind;
use af_models::ModelFamily;
use af_serve::durable::export_variant;
use af_serve::{ModelRegistry, VariantSpec};
use af_store::encode_container;

const MODEL_SEED: u64 = 0x5E12_F00D;

/// `tcp-mixed`'s five variants of one Transformer checkpoint.
fn tcp_mixed() -> Vec<VariantSpec> {
    const DIMS: [usize; 4] = [96, 192, 192, 48];
    let family = ModelFamily::Transformer;
    let q = |id: &str, kind| VariantSpec::quantized(id, family, kind, 8, MODEL_SEED, &DIMS);
    vec![
        VariantSpec::fp32("transformer/fp32", family, MODEL_SEED, &DIMS),
        q("transformer/adaptivfloat8", FormatKind::AdaptivFloat),
        q("transformer/adaptivfloat8-fused", FormatKind::AdaptivFloat).fused(),
        q("transformer/uniform8-fused", FormatKind::Uniform).fused(),
        q("transformer/posit8", FormatKind::Posit),
    ]
}

/// `fleet-churn`'s twelve small models.
fn fleet_churn() -> Vec<VariantSpec> {
    use FormatKind::{AdaptivFloat, Float, Posit, Uniform};
    use ModelFamily::{ResNet, Seq2Seq, Transformer};
    const DIMS: [usize; 4] = [64, 128, 128, 32];
    let fp32 = |i: u64, name: &str, family| {
        VariantSpec::fp32(&format!("fleet/{name}"), family, MODEL_SEED + i, &DIMS)
    };
    let q = |i: u64, name: &str, family, kind, n| {
        VariantSpec::quantized(
            &format!("fleet/{name}"),
            family,
            kind,
            n,
            MODEL_SEED + i,
            &DIMS,
        )
    };
    vec![
        fp32(0, "m00-fp32", Transformer),
        fp32(1, "m01-fp32", ResNet),
        q(2, "m02-af8", Transformer, AdaptivFloat, 8),
        q(3, "m03-uniform8", Seq2Seq, Uniform, 8),
        q(4, "m04-posit8", ResNet, Posit, 8),
        q(5, "m05-float8", Transformer, Float, 8),
        q(6, "m06-af8-protected", Transformer, AdaptivFloat, 8).protected(),
        q(7, "m07-uniform8-protected", Seq2Seq, Uniform, 8).protected(),
        q(8, "m08-posit8-protected", ResNet, Posit, 8).protected(),
        q(9, "m09-af8-fused", Transformer, AdaptivFloat, 8).fused(),
        q(10, "m10-uniform8-fused", Seq2Seq, Uniform, 8).fused(),
        q(11, "m11-af4-fused", ResNet, AdaptivFloat, 4).fused(),
    ]
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Register every spec on a fresh registry; each container's hash.
fn container_hashes() -> Vec<(String, u64)> {
    let registry = ModelRegistry::new();
    tcp_mixed()
        .into_iter()
        .chain(fleet_churn())
        .map(|spec| {
            let variant = registry.register(&spec).expect("valid spec");
            let hash = fnv1a(&encode_container(&export_variant(&variant)));
            (spec.id, hash)
        })
        .collect()
}

#[test]
fn stored_bytes_match_the_pinned_hashes_cold_and_warm() {
    // Recorded at the commit before one-pass codes.
    let want = [
        ("transformer/fp32", 0x41a5_23f9_b424_6a8f),
        ("transformer/adaptivfloat8", 0xbe9a_09b7_8a50_e62a),
        ("transformer/adaptivfloat8-fused", 0x0d53_dee7_537d_0b72),
        ("transformer/uniform8-fused", 0x7cdd_3c96_699c_8675),
        ("transformer/posit8", 0xe61f_6e8c_78da_1d4d),
        ("fleet/m00-fp32", 0x4ae9_dae0_9768_fc47),
        ("fleet/m01-fp32", 0x76cd_05b2_3434_e408),
        ("fleet/m02-af8", 0x76b0_bd54_a1ab_9ba6),
        ("fleet/m03-uniform8", 0x7724_7fe7_c277_56c8),
        ("fleet/m04-posit8", 0x24d1_3447_5be9_4345),
        ("fleet/m05-float8", 0x24fd_40ce_5215_f176),
        ("fleet/m06-af8-protected", 0xcbf2_ff76_60af_ec43),
        ("fleet/m07-uniform8-protected", 0xd911_1387_395e_fee4),
        ("fleet/m08-posit8-protected", 0xf4a9_cd3c_fb71_1220),
        ("fleet/m09-af8-fused", 0x15c1_ddc6_e339_5dc9),
        ("fleet/m10-uniform8-fused", 0x3611_2da4_37bb_5930),
        ("fleet/m11-af4-fused", 0xe489_68fe_6676_94e2),
    ];
    for pass in ["cold cache", "warm cache"] {
        let got = container_hashes();
        let want: Vec<(String, u64)> = want.iter().map(|&(id, h)| (id.to_string(), h)).collect();
        assert_eq!(got, want, "{pass}: {got:#x?}");
    }
}
