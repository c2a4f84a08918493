//! Campaign runner: sweep a fault model over a model's weight tensors
//! and measure the reconstruction damage per format.
//!
//! Determinism contract: a campaign's result is a pure function of
//! `(format, n, layers, config)` — **not** of the worker thread count.
//! Two mechanisms guarantee this:
//!
//! 1. fault maps are keyed per `(seed, layer, element)` through the
//!    splittable PRNG ([`crate::rng`]), so *which bits break* never
//!    depends on scheduling;
//! 2. per-layer partial sums are computed serially within one worker
//!    and merged on the caller's thread in layer order, so the
//!    non-associativity of floating-point addition never sees a
//!    thread-count-dependent grouping.

use crate::fault::{FaultKind, FaultSpec};
use crate::inject::{inject_f32, inject_packed};
use crate::rng::mix;
use adaptivfloat::{DecodePolicy, DecodeStats, FormatError, FormatKind, StorageCodec};

/// What to inject, how hard, and how to decode afterwards.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// The upset model applied to stored words.
    pub kind: FaultKind,
    /// Per-element fault probability.
    pub rate: f64,
    /// Campaign seed; layer `i` derives its map seed as `seed ⊕ mix(i)`.
    pub seed: u64,
    /// Decode policy for the corrupted codes.
    pub policy: DecodePolicy,
    /// Worker thread count; `None` uses the process default
    /// (`AF_NUM_THREADS` / detected parallelism). The result is
    /// identical for every setting — this knob only changes wall time.
    pub threads: Option<usize>,
}

impl CampaignConfig {
    /// Single-bit campaign at `rate` under `seed`, hardened decode.
    pub fn single_bit(rate: f64, seed: u64) -> Self {
        CampaignConfig {
            kind: FaultKind::SingleBit,
            rate,
            seed,
            policy: DecodePolicy::Harden,
            threads: None,
        }
    }

    fn spec_for_layer(&self, layer: usize) -> FaultSpec {
        FaultSpec {
            kind: self.kind,
            rate: self.rate,
            seed: self.seed ^ mix(layer as u64),
        }
    }
}

/// Aggregate outcome of one campaign cell (one format × width × rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOutcome {
    /// Total elements across all layers.
    pub elements: u64,
    /// Words struck by the fault maps.
    pub faults_injected: u64,
    /// RMS error of the *clean* quantized weights vs. FP32 — the
    /// quantization floor the fault damage sits on top of.
    pub clean_rms: f64,
    /// RMS error of the corrupted-then-decoded weights vs. FP32.
    pub faulty_rms: f64,
    /// Corruption detections from the hardened decoder.
    pub stats: DecodeStats,
}

impl CampaignOutcome {
    /// Fault damage above the quantization floor.
    pub fn degradation(&self) -> f64 {
        self.faulty_rms - self.clean_rms
    }
}

/// Per-layer partial sums, merged in layer order by the caller.
struct LayerPartial {
    elements: u64,
    faults: u64,
    sq_clean: f64,
    sq_faulty: f64,
    stats: DecodeStats,
}

/// Run a storage-fault campaign for one format at word size `n` over a
/// set of weight tensors. Each layer is encoded with its own fitted
/// per-tensor codec (AdaptivFloat bias, BFP exponent, Uniform scale),
/// corrupted per the config, and decoded under the config's policy.
///
/// # Errors
///
/// Returns [`FormatError::InvalidBits`] if `n` is invalid for `format`.
pub fn run_weight_campaign(
    format: FormatKind,
    n: u32,
    layers: &[Vec<f32>],
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, FormatError> {
    run_layers(layers, cfg, |layer_idx, data| {
        let codec = StorageCodec::fit(format, n, data)?;
        let mut packed = codec.encode_slice(data);
        let (clean, _) = codec.decode_slice(&packed, DecodePolicy::Raw);
        let map = cfg.spec_for_layer(layer_idx).sample(data.len(), n);
        let faults = inject_packed(&mut packed, &map) as u64;
        let (faulty, stats) = codec.decode_slice(&packed, cfg.policy);
        Ok(partial(data, &clean, &faulty, faults, stats))
    })
}

/// Run the FP32 baseline campaign: the same fault model striking raw
/// IEEE-754 words (width 32) with no codec in between. The decode
/// policy maps to a guard over the layer's own value range: under
/// [`DecodePolicy::Harden`] non-finites repair to 0 and magnitudes are
/// clamped to the layer's clean maximum.
pub fn run_f32_campaign(layers: &[Vec<f32>], cfg: &CampaignConfig) -> CampaignOutcome {
    let result: Result<CampaignOutcome, FormatError> =
        run_layers(layers, cfg, |layer_idx, data| {
            let mut corrupted = data.clone();
            let map = cfg.spec_for_layer(layer_idx).sample(data.len(), 32);
            let faults = inject_f32(&mut corrupted, &map) as u64;
            let max_abs = data
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(0.0f32, |acc, v| acc.max(v.abs()));
            let mut stats = DecodeStats::new();
            for v in corrupted.iter_mut() {
                *v = stats.guard(cfg.policy, max_abs, *v);
            }
            Ok(partial(data, data, &corrupted, faults, stats))
        });
    result.expect("f32 campaign has no fallible geometry")
}

fn partial(
    reference: &[f32],
    clean: &[f32],
    faulty: &[f32],
    faults: u64,
    stats: DecodeStats,
) -> LayerPartial {
    let mut sq_clean = 0.0f64;
    let mut sq_faulty = 0.0f64;
    for ((&r, &c), &f) in reference.iter().zip(clean).zip(faulty) {
        let dc = (r - c) as f64;
        sq_clean += dc * dc;
        // A raw-policy campaign can leave NaN/∞ in the tensor; count
        // those as damage at the representable maximum of f64 rather
        // than poisoning the aggregate into NaN.
        let df = if f.is_finite() {
            (r - f) as f64
        } else {
            f64::MAX.sqrt()
        };
        sq_faulty += df * df;
    }
    LayerPartial {
        elements: reference.len() as u64,
        faults,
        sq_clean,
        sq_faulty,
        stats,
    }
}

/// Fan `work` out over the layers with the configured worker count and
/// merge partials in layer order (see the module docs for why).
fn run_layers<F>(
    layers: &[Vec<f32>],
    cfg: &CampaignConfig,
    work: F,
) -> Result<CampaignOutcome, FormatError>
where
    F: Fn(usize, &Vec<f32>) -> Result<LayerPartial, FormatError> + Sync,
{
    let threads = cfg
        .threads
        .unwrap_or_else(adaptivfloat::par::num_threads)
        .clamp(1, layers.len().max(1));
    let mut partials: Vec<Option<Result<LayerPartial, FormatError>>> =
        (0..layers.len()).map(|_| None).collect();
    if threads <= 1 {
        for (i, (layer, slot)) in layers.iter().zip(partials.iter_mut()).enumerate() {
            *slot = Some(work(i, layer));
        }
    } else {
        // Deal layers round-robin; each worker owns disjoint slots.
        let mut buckets: Vec<Vec<(usize, &Vec<f32>, &mut Option<_>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, (layer, slot)) in layers.iter().zip(partials.iter_mut()).enumerate() {
            buckets[i % threads].push((i, layer, slot));
        }
        std::thread::scope(|scope| {
            let work = &work;
            for bucket in buckets {
                scope.spawn(move || {
                    for (i, layer, slot) in bucket {
                        *slot = Some(work(i, layer));
                    }
                });
            }
        });
    }
    // Merge strictly in layer order — identical for every thread count.
    let mut out = CampaignOutcome {
        elements: 0,
        faults_injected: 0,
        clean_rms: 0.0,
        faulty_rms: 0.0,
        stats: DecodeStats::new(),
    };
    let mut sq_clean = 0.0f64;
    let mut sq_faulty = 0.0f64;
    for slot in partials {
        let p = slot.expect("every layer processed")?;
        out.elements += p.elements;
        out.faults_injected += p.faults;
        sq_clean += p.sq_clean;
        sq_faulty += p.sq_faulty;
        out.stats.merge(&p.stats);
    }
    if out.elements > 0 {
        out.clean_rms = (sq_clean / out.elements as f64).sqrt();
        out.faulty_rms = (sq_faulty / out.elements as f64).sqrt();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_layers() -> Vec<Vec<f32>> {
        (0..7)
            .map(|l| {
                (0..1500)
                    .map(|i| (((i * 37 + l * 101) % 211) as f32 - 105.0) * 0.013)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let layers = toy_layers();
        for kind in FormatKind::ALL {
            let mut cfg = CampaignConfig::single_bit(0.01, 42);
            cfg.threads = Some(1);
            let serial = run_weight_campaign(kind, 8, &layers, &cfg).unwrap();
            cfg.threads = Some(8);
            let parallel = run_weight_campaign(kind, 8, &layers, &cfg).unwrap();
            assert_eq!(
                serial, parallel,
                "{kind}: campaign must be bit-identical at 1 vs 8 threads"
            );
            assert_eq!(serial.clean_rms.to_bits(), parallel.clean_rms.to_bits());
            assert_eq!(serial.faulty_rms.to_bits(), parallel.faulty_rms.to_bits());
        }
    }

    #[test]
    fn zero_rate_campaign_is_the_quantization_floor() {
        let layers = toy_layers();
        let cfg = CampaignConfig::single_bit(0.0, 1);
        let out = run_weight_campaign(FormatKind::AdaptivFloat, 8, &layers, &cfg).unwrap();
        assert_eq!(out.faults_injected, 0);
        assert_eq!(out.stats.repaired(), 0);
        assert_eq!(
            out.clean_rms.to_bits(),
            out.faulty_rms.to_bits(),
            "zero faults ⇒ faulty path bit-identical to clean path"
        );
    }

    #[test]
    fn damage_grows_with_rate() {
        let layers = toy_layers();
        let lo = run_weight_campaign(
            FormatKind::AdaptivFloat,
            8,
            &layers,
            &CampaignConfig::single_bit(1e-3, 5),
        )
        .unwrap();
        let hi = run_weight_campaign(
            FormatKind::AdaptivFloat,
            8,
            &layers,
            &CampaignConfig::single_bit(0.05, 5),
        )
        .unwrap();
        assert!(hi.faults_injected > lo.faults_injected);
        assert!(hi.degradation() > lo.degradation());
    }

    #[test]
    fn hardening_never_hurts_posit() {
        // Posit's NaR is the pathological raw decode; hardening caps the
        // damage, so hardened RMS ≤ raw RMS (with NaN damage priced in).
        let layers = toy_layers();
        let mut cfg = CampaignConfig::single_bit(0.02, 9);
        let hard = run_weight_campaign(FormatKind::Posit, 8, &layers, &cfg).unwrap();
        cfg.policy = DecodePolicy::Raw;
        let raw = run_weight_campaign(FormatKind::Posit, 8, &layers, &cfg).unwrap();
        assert!(hard.faulty_rms <= raw.faulty_rms);
    }

    #[test]
    fn f32_campaign_runs_and_detects() {
        let layers = toy_layers();
        let cfg = CampaignConfig::single_bit(0.01, 13);
        let out = run_f32_campaign(&layers, &cfg);
        assert!(out.faults_injected > 0);
        assert_eq!(out.clean_rms, 0.0, "FP32 has no quantization floor");
        assert!(out.faulty_rms > 0.0);
    }
}
