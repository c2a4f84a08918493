//! Paper-calibrated weight ensembles.
//!
//! Figure 1 and Figure 4 of the paper only depend on the *distribution*
//! of trained weights, not on the tasks. This module synthesizes
//! per-layer weight tensors whose ranges match what the paper reports
//! (Table 1 and Figure 1) and whose shapes match the published
//! observations: batch-norm CNNs are narrow and near-Gaussian; layer-norm
//! NLP models are wide with heavy tails.

use rand::Rng;

/// The model families shown in the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnsembleKind {
    /// ResNet-50 — narrow batch-norm CNN, range ≈ [−0.78, 1.32] (Table 1).
    ResNet50,
    /// Inception-v3 — narrow CNN, range ≈ ±1.6.
    InceptionV3,
    /// DenseNet-201 — narrow CNN, range ≈ ±2.1.
    DenseNet201,
    /// LSTM seq2seq — moderate, range ≈ [−2.21, 2.39] (Table 1).
    Seq2Seq,
    /// BERT — wide layer-norm NLP model, range ≈ ±10.
    Bert,
    /// GPT — wide, range ≈ ±13.
    Gpt,
    /// Transformer (WMT'17) — range [−12.46, 20.41] (Table 1).
    Transformer,
    /// XLNet — wide, range ≈ ±17.
    Xlnet,
    /// XLM — widest shown, range ≈ ±25.
    Xlm,
}

impl EnsembleKind {
    /// The kinds in the paper's Figure 1, CNNs first.
    pub const ALL: [EnsembleKind; 9] = [
        EnsembleKind::ResNet50,
        EnsembleKind::InceptionV3,
        EnsembleKind::DenseNet201,
        EnsembleKind::Seq2Seq,
        EnsembleKind::Bert,
        EnsembleKind::Gpt,
        EnsembleKind::Transformer,
        EnsembleKind::Xlnet,
        EnsembleKind::Xlm,
    ];

    /// The three kinds evaluated in Tables 2–3 / Figure 4.
    pub const EVALUATED: [EnsembleKind; 3] = [
        EnsembleKind::Transformer,
        EnsembleKind::Seq2Seq,
        EnsembleKind::ResNet50,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EnsembleKind::ResNet50 => "ResNet-50",
            EnsembleKind::InceptionV3 => "Inception-v3",
            EnsembleKind::DenseNet201 => "DenseNet-201",
            EnsembleKind::Seq2Seq => "Seq2Seq",
            EnsembleKind::Bert => "BERT",
            EnsembleKind::Gpt => "GPT",
            EnsembleKind::Transformer => "Transformer",
            EnsembleKind::Xlnet => "XLNet",
            EnsembleKind::Xlm => "XLM",
        }
    }

    /// Whether the family uses batch norm (narrow weights) or layer norm
    /// (wide weights) — the paper's Figure 1 dichotomy.
    pub fn is_cnn(self) -> bool {
        matches!(
            self,
            EnsembleKind::ResNet50 | EnsembleKind::InceptionV3 | EnsembleKind::DenseNet201
        )
    }

    /// The target full-model weight range `(min, max)`.
    pub fn target_range(self) -> (f32, f32) {
        match self {
            EnsembleKind::ResNet50 => (-0.78, 1.32),
            EnsembleKind::InceptionV3 => (-1.6, 1.5),
            EnsembleKind::DenseNet201 => (-2.1, 2.0),
            EnsembleKind::Seq2Seq => (-2.21, 2.39),
            EnsembleKind::Bert => (-10.0, 9.2),
            EnsembleKind::Gpt => (-13.0, 12.1),
            EnsembleKind::Transformer => (-12.46, 20.41),
            EnsembleKind::Xlnet => (-17.0, 16.2),
            EnsembleKind::Xlm => (-25.0, 23.4),
        }
    }

    /// Per-layer Gaussian core width (CNNs are tight; NLP layers vary an
    /// order of magnitude, which is what per-layer adaptation exploits).
    fn layer_sigma(self, layer: usize, layers: usize) -> f32 {
        let t = layer as f32 / layers.max(1) as f32;
        if self.is_cnn() {
            0.02 + 0.03 * t
        } else {
            // Early layers tight, late layers broad (embeddings/output
            // projections carry the big weights).
            0.02 * (1.0 + 30.0 * t)
        }
    }

    /// Fraction of heavy-tail outliers per layer.
    fn outlier_fraction(self) -> f32 {
        if self.is_cnn() {
            0.0005
        } else {
            0.01
        }
    }

    /// Synthesize the ensemble: one tensor per entry of `kept`, each
    /// drawn as `layer_size` weights of which only the first `kept[l]`
    /// are kept. The discarded tail still consumes its RNG draws, so
    /// the stream (and every kept weight) is the same for any `kept`;
    /// only the Box–Muller transform is skipped there. The last layer
    /// is pinned so the whole-model range matches
    /// [`target_range`](Self::target_range) exactly (pins that fall in
    /// the discarded tail are dropped with it).
    ///
    /// # Panics
    ///
    /// Panics if `kept` is empty, `layer_size < 4`, or any `kept[l]`
    /// exceeds `layer_size`.
    pub fn generate<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        layer_size: usize,
        kept: &[usize],
    ) -> WeightEnsemble {
        assert!(!kept.is_empty() && layer_size >= 4, "ensemble too small");
        assert!(
            kept.iter().all(|&k| k <= layer_size),
            "kept length exceeds the layer size"
        );
        let (lo, hi) = self.target_range();
        let layers = kept.len();
        let mut out = Vec::with_capacity(layers);
        for (l, &keep) in kept.iter().enumerate() {
            let sigma = self.layer_sigma(l, layers);
            let mut w = Vec::with_capacity(keep);
            for i in 0..layer_size {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                // Heavy tail: occasional large-magnitude outliers.
                let outlier = rng.gen_range(0.0f32..1.0) < self.outlier_fraction();
                let stretch = if outlier {
                    rng.gen_range(5.0f32..12.0)
                } else {
                    1.0
                };
                if i < keep {
                    // Box–Muller Gaussian core, kept within the
                    // model-level envelope (× 1.0 is exact).
                    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                    w.push((g * sigma * stretch).clamp(lo, hi));
                }
            }
            if l == layers - 1 {
                // Pin the global extremes (Figure 1 plots exact ranges).
                for (slot, pin) in w.iter_mut().zip([lo, hi]) {
                    *slot = pin;
                }
            }
            out.push((format!("{}.layer{}", self.label(), l), w));
        }
        WeightEnsemble {
            kind: self,
            layers: out,
        }
    }
}

impl std::fmt::Display for EnsembleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A synthesized set of per-layer weight tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightEnsemble {
    /// Which family this ensemble models.
    pub kind: EnsembleKind,
    /// Named per-layer weight vectors.
    pub layers: Vec<(String, Vec<f32>)>,
}

impl WeightEnsemble {
    /// The global (min, max) over all layers.
    pub fn range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for (_, w) in &self.layers {
            for &v in w {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }

    /// Total weight count.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|(_, w)| w.len()).sum()
    }

    /// Whether the ensemble holds no weights.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranges_match_paper_targets() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in EnsembleKind::ALL {
            let e = kind.generate(&mut rng, 2048, &[2048; 8]);
            let (lo, hi) = e.range();
            let (tlo, thi) = kind.target_range();
            assert_eq!(lo, tlo, "{kind} min");
            assert_eq!(hi, thi, "{kind} max");
        }
    }

    #[test]
    fn nlp_wider_than_cnn() {
        // The >10× claim of Figure 1.
        let mut rng = StdRng::seed_from_u64(1);
        let cnn = EnsembleKind::ResNet50.generate(&mut rng, 1024, &[1024; 8]);
        let nlp = EnsembleKind::Transformer.generate(&mut rng, 1024, &[1024; 8]);
        let cnn_max = cnn.range().1.abs().max(cnn.range().0.abs());
        let nlp_max = nlp.range().1.abs().max(nlp.range().0.abs());
        assert!(nlp_max > 10.0 * cnn_max, "{nlp_max} vs {cnn_max}");
    }

    #[test]
    fn nlp_has_heavier_tails() {
        use adaptivfloat::TensorStats;
        let mut rng = StdRng::seed_from_u64(2);
        let cnn = EnsembleKind::ResNet50.generate(&mut rng, 8192, &[8192; 4]);
        let nlp = EnsembleKind::Gpt.generate(&mut rng, 8192, &[8192; 4]);
        let k = |e: &WeightEnsemble| {
            let all: Vec<f32> = e.layers.iter().flat_map(|(_, w)| w.clone()).collect();
            TensorStats::from_slice(&all).kurtosis
        };
        assert!(k(&nlp) > k(&cnn), "nlp {} vs cnn {}", k(&nlp), k(&cnn));
    }

    #[test]
    fn layer_sigmas_vary_for_nlp() {
        use adaptivfloat::TensorStats;
        let mut rng = StdRng::seed_from_u64(3);
        let e = EnsembleKind::Transformer.generate(&mut rng, 4096, &[4096; 8]);
        let first = TensorStats::from_slice(&e.layers[0].1).std;
        let last = TensorStats::from_slice(&e.layers[6].1).std;
        assert!(last > 4.0 * first, "first {first} last {last}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = EnsembleKind::Bert.generate(&mut StdRng::seed_from_u64(7), 128, &[128; 3]);
        let b = EnsembleKind::Bert.generate(&mut StdRng::seed_from_u64(7), 128, &[128; 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn kept_lengths_truncate_without_moving_the_stream() {
        let full = EnsembleKind::Gpt.generate(&mut StdRng::seed_from_u64(5), 64, &[64; 3]);
        let kept = EnsembleKind::Gpt.generate(&mut StdRng::seed_from_u64(5), 64, &[10, 64, 1]);
        for ((_, f), (_, k)) in full.layers.iter().zip(&kept.layers) {
            assert_eq!(&f[..k.len()], &k[..]);
        }
        assert_eq!(kept.layers[2].1, vec![EnsembleKind::Gpt.target_range().0]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_ensemble_rejected() {
        EnsembleKind::Bert.generate(&mut StdRng::seed_from_u64(0), 128, &[]);
    }
}
