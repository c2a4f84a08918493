//! The serving-path contract behind `prewarm_codebooks`: once a format's
//! codebooks are warmed at the calibrated activation range, steady-state
//! quantization never takes the cache's write lock — every request is a
//! read-lock lookup plus table walks.
//!
//! This lives in its own integration binary (single `#[test]`) because
//! the write-lock counter is process-global: unrelated tests building
//! codebooks concurrently would perturb it.

use adaptivfloat::{lut, FormatKind, NumberFormat};

#[test]
fn warmed_cache_takes_no_write_lock_on_the_serve_path() {
    // A calibrated activation range per format, as a serving registry
    // would record during model registration.
    let max_abs = 3.7_f32;
    let formats: Vec<Box<dyn NumberFormat>> = FormatKind::ALL
        .iter()
        .map(|k| k.build(8).expect("paper bit width"))
        .collect();

    let mut any_warmed = false;
    for fmt in &formats {
        any_warmed |= fmt.prewarm_codebooks(max_abs);
    }
    assert!(any_warmed, "at least one format must have a codebook path");
    // AdaptivFloat's bit-twiddled kernel carries no cached state.
    assert!(!FormatKind::AdaptivFloat
        .build(8)
        .unwrap()
        .prewarm_codebooks(max_abs));

    // Steady state: quantize calibrated activations repeatedly. The
    // write lock must not be touched — all codebooks are resident.
    let inputs: Vec<f32> = (0..4096).map(|i| (i as f32 / 512.0 - 4.0) * 1.3).collect();
    let before = lut::write_lock_acquisitions();
    let mut sink = 0.0f64;
    for _ in 0..10 {
        for fmt in &formats {
            let q = fmt.quantize_slice_with_max(max_abs, &inputs);
            sink += q[0] as f64;
        }
    }
    let after = lut::write_lock_acquisitions();
    assert_eq!(
        before, after,
        "serve path took the LUT write lock despite prewarmed codebooks"
    );
    assert!(sink.is_finite());

    // A second prewarm at the same calibration is a no-op (still no
    // builds).
    for fmt in &formats {
        fmt.prewarm_codebooks(max_abs);
    }
    assert_eq!(lut::write_lock_acquisitions(), after);
}
