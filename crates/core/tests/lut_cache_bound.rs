//! The codebook cache is bounded by the bytes its tables hold, not by
//! their count: filling it with tables for distinct Uniform scales (one
//! per calibrated range) must empty it before it passes
//! `lut::CACHE_BYTES`, and it must keep serving afterwards.
//!
//! Its own binary: the cache is process-wide, and other tests building
//! or hitting tables at the same time would blur what is measured.

use adaptivfloat::{lut, FormatKind, QuantStats};

#[test]
fn distinct_uniform_scales_never_push_the_cache_past_its_byte_cap() {
    let uniform = FormatKind::Uniform.build(8).unwrap();
    let (mut peak, mut emptied) = (0usize, false);
    for i in 0..600u32 {
        let max_abs = 1.0 + i as f32 / 64.0;
        let plan = uniform.plan(&QuantStats::calibrated(max_abs));
        assert!(plan.uses_codebook(), "range {max_abs}");
        let bytes = lut::resident_bytes();
        assert!(bytes <= lut::CACHE_BYTES, "{bytes} bytes after {i} tables");
        emptied |= bytes < peak;
        peak = peak.max(bytes);
    }
    assert!(emptied, "600 Uniform tables must overflow the cap once");
    // Emptied or not, a plan built now executes exactly.
    let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.11).sin() * 3.0).collect();
    let plan = uniform.plan(&QuantStats::calibrated(3.0));
    let want = uniform.quantize_slice_with_max(3.0, &data);
    let got = plan.execute(&data);
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}
