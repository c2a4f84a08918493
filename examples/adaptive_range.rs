//! Domain scenario 3 — why per-layer adaptation matters.
//!
//! Walks the paper-calibrated Transformer weight ensemble layer by layer,
//! showing how AdaptivFloat's exponent bias tracks each layer's magnitude
//! while a non-adaptive float (and a single shared-exponent BFP grid)
//! cannot fit narrow and wide layers at once.
//!
//! Run with `cargo run --release --example adaptive_range`.

use adaptivfloat::{rms_error, AdaptivFloat, BlockFloat, IeeeLikeFloat, NumberFormat, TensorStats};
use af_models::ensembles::EnsembleKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), adaptivfloat::FormatError> {
    let mut rng = StdRng::seed_from_u64(99);
    let ensemble = EnsembleKind::Transformer.generate(&mut rng, 2048, &[2048; 10]);
    let af = AdaptivFloat::new(6, 3)?;
    let fl = IeeeLikeFloat::new(6, 3)?;
    let bfp = BlockFloat::new(6)?;
    println!("Transformer-like ensemble, 6-bit quantization per layer\n");
    println!(
        "{:<22} {:>9} {:>9} {:>10} {:>10} {:>10}",
        "layer", "|max|", "exp_bias", "AdaptivF", "Float", "BFP"
    );
    let mut totals = (0.0f64, 0.0f64, 0.0f64);
    for (name, w) in &ensemble.layers {
        let stats = TensorStats::from_slice(w);
        let params = af.params_for(w);
        let e_af = rms_error(w, &af.quantize_slice(w));
        let e_fl = rms_error(w, &fl.quantize_slice(w));
        let e_bfp = rms_error(w, &bfp.quantize_slice(w));
        totals.0 += e_af;
        totals.1 += e_fl;
        totals.2 += e_bfp;
        println!(
            "{:<22} {:>9.3} {:>9} {:>10.5} {:>10.5} {:>10.5}",
            name, stats.abs_max, params.exp_bias, e_af, e_fl, e_bfp
        );
    }
    let n = ensemble.layers.len() as f64;
    println!(
        "\nmean rms error: AdaptivFloat {:.5}, Float {:.5}, BFP {:.5}",
        totals.0 / n,
        totals.1 / n,
        totals.2 / n
    );
    println!(
        "\nThe exponent bias shifts by {} binades across layers — that is the\n\
         dynamic range a fixed-format encoding has to cover all at once.",
        {
            let biases: Vec<i32> = ensemble
                .layers
                .iter()
                .map(|(_, w)| af.params_for(w).exp_bias)
                .collect();
            biases.iter().max().expect("nonempty") - biases.iter().min().expect("nonempty")
        }
    );
    Ok(())
}
