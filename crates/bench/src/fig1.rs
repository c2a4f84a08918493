//! Figure 1: weight ranges of popular CNN vs NLP models — NLP weights can
//! be more than 10× larger.

use af_models::ensembles::EnsembleKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::render::TextTable;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBar {
    /// Model label.
    pub model: String,
    /// Whether the model is a batch-norm CNN.
    pub is_cnn: bool,
    /// Minimum weight.
    pub min: f32,
    /// Maximum weight.
    pub max: f32,
}

/// Figure data plus the rendered table.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// One bar per model, CNNs first.
    pub bars: Vec<RangeBar>,
    /// Rendered text table.
    pub rendered: String,
}

/// Regenerate Figure 1 from the paper-calibrated weight ensembles.
pub fn run(quick: bool) -> Fig1 {
    let layer_size = if quick { 512 } else { 4096 };
    let mut rng = StdRng::seed_from_u64(0xF161);
    let mut bars = Vec::new();
    for kind in EnsembleKind::ALL {
        let e = kind.generate(&mut rng, layer_size, &[layer_size; 8]);
        let (min, max) = e.range();
        bars.push(RangeBar {
            model: kind.label().to_string(),
            is_cnn: kind.is_cnn(),
            min,
            max,
        });
    }
    let mut table = TextTable::new(["model", "type", "min", "max", "span bar"]);
    let overall_max = bars
        .iter()
        .map(|b| b.max.abs().max(b.min.abs()))
        .fold(0.0f32, f32::max);
    for b in &bars {
        let lo = ((b.min / overall_max + 1.0) * 20.0).round() as usize;
        let hi = ((b.max / overall_max + 1.0) * 20.0).round() as usize;
        let mut bar = vec![' '; 41];
        for c in bar.iter_mut().take(hi.min(40) + 1).skip(lo.min(40)) {
            *c = '#';
        }
        bar[20] = '|';
        table.row([
            b.model.clone(),
            if b.is_cnn { "CNN" } else { "NLP" }.to_string(),
            format!("{:.2}", b.min),
            format!("{:.2}", b.max),
            bar.into_iter().collect::<String>(),
        ]);
    }
    Fig1 {
        bars,
        rendered: format!("Figure 1: DNN weight value ranges\n{}", table.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared() -> &'static Fig1 {
        static CELL: OnceLock<Fig1> = OnceLock::new();
        CELL.get_or_init(|| run(true))
    }

    #[test]
    fn nlp_more_than_10x_wider() {
        let fig = shared();
        let cnn_max = fig
            .bars
            .iter()
            .filter(|b| b.is_cnn)
            .map(|b| b.max.abs().max(b.min.abs()))
            .fold(0.0f32, f32::max);
        let nlp_max = fig
            .bars
            .iter()
            .filter(|b| !b.is_cnn)
            .map(|b| b.max.abs().max(b.min.abs()))
            .fold(0.0f32, f32::max);
        assert!(nlp_max > 10.0 * cnn_max, "{nlp_max} vs {cnn_max}");
    }

    #[test]
    fn transformer_range_matches_table1() {
        let fig = shared();
        let t = fig.bars.iter().find(|b| b.model == "Transformer").unwrap();
        assert_eq!((t.min, t.max), (-12.46, 20.41));
    }

    #[test]
    fn renders_all_nine_models() {
        let fig = shared();
        assert_eq!(fig.bars.len(), 9);
        assert!(fig.rendered.contains("XLM"));
    }
}
