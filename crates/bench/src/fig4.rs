//! Figure 4: per-layer RMS quantization error of the five formats at
//! 4/6/8-bit across the Transformer, Seq2Seq, and ResNet-50 weight
//! distributions.

use adaptivfloat::{rms_error, FormatKind, QuantStats};
use af_models::ensembles::EnsembleKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::render::TextTable;

/// The five-number summary of one boxplot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum per-layer RMS error.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl BoxStats {
    /// Summarize a set of per-layer errors.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from(values: &mut [f64]) -> Self {
        assert!(!values.is_empty(), "no layers");
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let q = |p: f64| values[((values.len() - 1) as f64 * p).round() as usize];
        BoxStats {
            min: values[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: values[values.len() - 1],
            mean: values.iter().sum::<f64>() / values.len() as f64,
        }
    }
}

/// One boxplot of the figure: (model, format, bits) → per-layer RMS
/// summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Cell {
    /// Model family.
    pub model: EnsembleKind,
    /// Number format.
    pub format: FormatKind,
    /// Word size.
    pub bits: u32,
    /// Boxplot statistics over layers.
    pub stats: BoxStats,
}

/// Figure data plus the rendered table.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// All boxplots.
    pub cells: Vec<Fig4Cell>,
    /// Rendered text table.
    pub rendered: String,
}

/// Regenerate Figure 4 from the weight ensembles.
pub fn run(quick: bool) -> Fig4 {
    let (layers, layer_size) = if quick { (8, 2048) } else { (16, 4096) };
    let mut rng = StdRng::seed_from_u64(0xF164);
    let mut cells = Vec::new();
    let mut table = TextTable::new([
        "model", "bits", "format", "min", "q1", "median", "q3", "max", "mean",
    ]);
    let mut scratch = vec![0.0f32; layer_size];
    for model in EnsembleKind::EVALUATED {
        let ensemble = model.generate(&mut rng, layer_size, &vec![layer_size; layers]);
        for bits in [4u32, 6, 8] {
            for format in FormatKind::ALL {
                let fmt = format.build(bits).expect("paper bit widths are valid");
                let mut errs: Vec<f64> = ensemble
                    .layers
                    .iter()
                    .map(|(_, w)| {
                        if scratch.len() < w.len() {
                            scratch.resize(w.len(), 0.0);
                        }
                        let dst = &mut scratch[..w.len()];
                        fmt.plan(&QuantStats::from_slice(w)).execute_into(w, dst);
                        rms_error(w, dst)
                    })
                    .collect();
                let stats = BoxStats::from(&mut errs);
                table.row([
                    model.label().to_string(),
                    bits.to_string(),
                    format.label().to_string(),
                    format!("{:.4}", stats.min),
                    format!("{:.4}", stats.q1),
                    format!("{:.4}", stats.median),
                    format!("{:.4}", stats.q3),
                    format!("{:.4}", stats.max),
                    format!("{:.4}", stats.mean),
                ]);
                cells.push(Fig4Cell {
                    model,
                    format,
                    bits,
                    stats,
                });
            }
        }
    }
    Fig4 {
        cells,
        rendered: format!(
            "Figure 4: per-layer RMS quantization error vs FP32\n{}",
            table.render()
        ),
    }
}

impl Fig4 {
    /// Look up one cell.
    pub fn cell(&self, model: EnsembleKind, format: FormatKind, bits: u32) -> &Fig4Cell {
        self.cells
            .iter()
            .find(|c| c.model == model && c.format == format && c.bits == bits)
            .expect("cell exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared() -> &'static Fig4 {
        static CELL: OnceLock<Fig4> = OnceLock::new();
        CELL.get_or_init(|| run(true))
    }

    #[test]
    fn adaptivfloat_has_lowest_mean_error() {
        // The headline claim of Figure 4.
        let fig = shared();
        for model in EnsembleKind::EVALUATED {
            for bits in [4, 6, 8] {
                let af = fig.cell(model, FormatKind::AdaptivFloat, bits).stats.mean;
                for other in [
                    FormatKind::Float,
                    FormatKind::Bfp,
                    FormatKind::Uniform,
                    FormatKind::Posit,
                ] {
                    let o = fig.cell(model, other, bits).stats.mean;
                    assert!(
                        af <= o * 1.001,
                        "{model} {bits}b: AdaptivFloat {af} vs {other} {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn posit_beats_float_on_wide_distributions() {
        // Among the non-adaptive formats the paper observes posit ahead.
        let fig = shared();
        for bits in [6, 8] {
            let p = fig
                .cell(EnsembleKind::Transformer, FormatKind::Posit, bits)
                .stats
                .mean;
            let f = fig
                .cell(EnsembleKind::Transformer, FormatKind::Float, bits)
                .stats
                .mean;
            assert!(p < f, "{bits}b posit {p} vs float {f}");
        }
    }

    #[test]
    fn error_shrinks_with_bits() {
        let fig = shared();
        for model in EnsembleKind::EVALUATED {
            for format in FormatKind::ALL {
                let e4 = fig.cell(model, format, 4).stats.mean;
                let e8 = fig.cell(model, format, 8).stats.mean;
                assert!(e8 < e4, "{model} {format}: {e8} !< {e4}");
            }
        }
    }

    #[test]
    fn has_45_boxplots() {
        // 3 models × 3 bit widths × 5 formats.
        assert_eq!(shared().cells.len(), 45);
    }
}
