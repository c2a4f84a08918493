//! Fault sweep: resilience of each storage format under seeded
//! single-bit-flip campaigns, at equal word size.
//!
//! Two sections, both driven by `af-resilience`:
//!
//! * **Storage RMS** — every [`FormatKind`] at 4 and 8 bits (plus an
//!   FP32 row at 32 bits) over a trained toy model's weight tensors,
//!   sweeping the per-word fault rate and comparing
//!   [`DecodePolicy::Raw`] against [`DecodePolicy::Harden`]. The
//!   reported degradation is the RMS damage *above* each format's own
//!   quantization floor.
//! * **End-task** — the same campaigns applied to the live model via
//!   [`af_models::evaluate_with_weight_transform`], reporting the task
//!   metric (Top-1 / BLEU / WER) after corruption, under the hardened
//!   decoder.
//! * **Protected** — SEC-DED protected storage
//!   ([`af_resilience::ProtectedCodes`]) against bare packed codes at
//!   equal *bit-level* BER (the fault map addresses every stored bit,
//!   parity included), reporting the end-task metric alongside the
//!   corrected / detected-uncorrectable counters — the serving story of
//!   this workspace's protected variants, measured end to end.
//!
//! The `fault_sweep` binary prints the rendered tables and writes the
//! structured cells to `BENCH_resilience.json`.

use adaptivfloat::{DecodePolicy, DecodeStats, FormatKind, StorageCodec};
use af_models::{evaluate_with_weight_transform, ModelFamily, QuantizableModel};
use af_resilience::rng::mix;
use af_resilience::{
    inject_f32, inject_packed, inject_packed_bits, inject_protected_bits, run_f32_campaign,
    run_weight_campaign, CampaignConfig, CampaignOutcome, FaultKind, FaultSpec, ProtectedCodes,
    CODEWORD_BITS,
};

use crate::render::TextTable;
use crate::table1::{build, eval_samples, fp32_steps};
use crate::Budget;

/// Campaign seed shared by every cell (layer maps derive from it).
pub const CAMPAIGN_SEED: u64 = 0xFA17;

/// Per-word fault rates swept in the storage section.
pub const STORAGE_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// Fault rates swept in the (more expensive) end-task section.
pub const END_TASK_RATES: [f64; 3] = [0.0, 1e-3, 1e-2];

/// Bit-level BERs swept in the protected-vs-unprotected section.
pub const PROTECTED_BERS: [f64; 4] = [0.0, 1e-4, 1e-3, 5e-3];

/// Formats carried through the protected sweep (the paper's format and
/// the uniform-integer baseline).
pub const PROTECTED_FORMATS: [FormatKind; 2] = [FormatKind::AdaptivFloat, FormatKind::Uniform];

/// One storage-campaign cell: model × format × width × rate × policy.
#[derive(Debug, Clone)]
pub struct StorageCell {
    /// Model whose weight tensors were struck.
    pub model: String,
    /// Format label ("FP32" for the uncoded baseline).
    pub format: String,
    /// Stored word size in bits.
    pub bits: u32,
    /// Per-word fault probability.
    pub rate: f64,
    /// Decode policy applied to the corrupted codes.
    pub policy: DecodePolicy,
    /// Campaign aggregate (elements, faults, RMS, detections).
    pub outcome: CampaignOutcome,
}

/// One end-task cell: the task metric after weight-storage corruption.
#[derive(Debug, Clone)]
pub struct EndTaskCell {
    /// Model evaluated.
    pub model: String,
    /// Task metric name (Top-1 / BLEU / WER).
    pub metric_name: &'static str,
    /// Format label ("FP32" for the uncoded baseline).
    pub format: String,
    /// Stored word size in bits.
    pub bits: u32,
    /// Per-word fault probability.
    pub rate: f64,
    /// The model's uncorrupted FP32 metric (reference).
    pub fp32_metric: f64,
    /// Task metric after corrupt-then-decode of all weight matrices.
    pub metric: f64,
    /// Words struck by the fault maps.
    pub faults_injected: u64,
    /// Corrupted codes the hardened decoder detected and repaired.
    pub repaired: u64,
}

/// One protected-sweep cell: the end-task metric with weight storage
/// struck at a bit-level BER, with and without SEC-DED protection.
#[derive(Debug, Clone)]
pub struct ProtectedCell {
    /// Model evaluated.
    pub model: String,
    /// Task metric name (Top-1 / BLEU / WER).
    pub metric_name: &'static str,
    /// Format label.
    pub format: String,
    /// Stored word size in bits.
    pub bits: u32,
    /// Per-bit fault probability over the raw storage image.
    pub ber: f64,
    /// Whether the codes sat behind SEC-DED parity.
    pub protected: bool,
    /// The model's uncorrupted FP32 metric (reference).
    pub fp32_metric: f64,
    /// Task metric after corrupt-then-decode of all weight matrices.
    pub metric: f64,
    /// Storage bits actually struck by the fault maps.
    pub bits_struck: u64,
    /// Words the SEC-DED read corrected (0 for unprotected cells).
    pub corrected: u64,
    /// Words detected uncorrectable (0 for unprotected cells).
    pub uncorrectable: u64,
}

/// Sweep data plus the rendered tables and the JSON document.
#[derive(Debug, Clone)]
pub struct Resilience {
    /// Storage-RMS cells.
    pub storage: Vec<StorageCell>,
    /// End-task cells.
    pub end_task: Vec<EndTaskCell>,
    /// Protected-vs-unprotected cells.
    pub protected: Vec<ProtectedCell>,
    /// Chaos availability sweep (breakers on vs off).
    pub chaos: crate::chaos::ChaosBench,
    /// `BENCH_resilience.json` contents.
    pub json: String,
    /// Rendered text tables.
    pub rendered: String,
}

/// Run the storage-RMS campaigns for one model's weight layers.
///
/// `threads` is passed straight into [`CampaignConfig::threads`]; the
/// cells are bit-identical for every setting (covered by a test).
pub fn storage_section(
    model: &str,
    layers: &[Vec<f32>],
    rates: &[f64],
    threads: Option<usize>,
) -> Vec<StorageCell> {
    let mut cells = Vec::new();
    let cfg = |rate: f64, policy: DecodePolicy| CampaignConfig {
        kind: FaultKind::SingleBit,
        rate,
        seed: CAMPAIGN_SEED,
        policy,
        threads,
    };
    for n in [4u32, 8] {
        for format in FormatKind::ALL {
            for &rate in rates {
                for policy in [DecodePolicy::Raw, DecodePolicy::Harden] {
                    let outcome = run_weight_campaign(format, n, layers, &cfg(rate, policy))
                        .expect("paper word sizes are valid for every format");
                    cells.push(StorageCell {
                        model: model.to_string(),
                        format: format.label().to_string(),
                        bits: n,
                        rate,
                        policy,
                        outcome,
                    });
                }
            }
        }
    }
    for &rate in rates {
        for policy in [DecodePolicy::Raw, DecodePolicy::Harden] {
            let outcome = run_f32_campaign(layers, &cfg(rate, policy));
            cells.push(StorageCell {
                model: model.to_string(),
                format: "FP32".to_string(),
                bits: 32,
                rate,
                policy,
                outcome,
            });
        }
    }
    cells
}

/// Evaluate the model with its weight matrices passed through one
/// corrupt-then-decode campaign. `format = None` is the FP32 baseline
/// (faults strike the raw IEEE words). Returns the metric, the number
/// of struck words, and the decoder's detection counters.
fn end_task_metric(
    model: &mut dyn QuantizableModel,
    samples: usize,
    format: Option<FormatKind>,
    n: u32,
    rate: f64,
) -> (f64, u64, DecodeStats) {
    let mut faults = 0u64;
    let mut stats = DecodeStats::new();
    let metric = evaluate_with_weight_transform(model, samples, |layer, w| {
        let spec = FaultSpec {
            kind: FaultKind::SingleBit,
            rate,
            seed: CAMPAIGN_SEED ^ mix(layer as u64),
        };
        match format {
            Some(kind) => {
                let codec = StorageCodec::fit(kind, n, w).expect("valid geometry");
                let mut packed = codec.encode_slice(w);
                let map = spec.sample(w.len(), n);
                faults += inject_packed(&mut packed, &map) as u64;
                let (vals, s) = codec.decode_slice(&packed, DecodePolicy::Harden);
                w.copy_from_slice(&vals);
                stats.merge(&s);
            }
            None => {
                let max_abs = w
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .fold(0.0f32, |acc, v| acc.max(v.abs()));
                let map = spec.sample(w.len(), 32);
                faults += inject_f32(w, &map) as u64;
                for v in w.iter_mut() {
                    *v = stats.guard(DecodePolicy::Harden, max_abs, *v);
                }
            }
        }
    });
    (metric, faults, stats)
}

/// Evaluate the model with each weight matrix's packed codes struck at
/// a bit-level BER, either bare or behind SEC-DED parity. The protected
/// arm reads through [`ProtectedCodes::decode`] (the serving read path:
/// single-bit words corrected, uncorrectable words passed through raw);
/// both arms then decode values under the hardened policy. Returns
/// `(metric, bits_struck, corrected, uncorrectable)`.
fn protected_end_task(
    model: &mut dyn QuantizableModel,
    samples: usize,
    kind: FormatKind,
    n: u32,
    ber: f64,
    protected: bool,
) -> (f64, u64, u64, u64) {
    let mut struck = 0u64;
    let mut corrected = 0u64;
    let mut uncorrectable = 0u64;
    let metric = evaluate_with_weight_transform(model, samples, |layer, w| {
        let spec = FaultSpec {
            kind: FaultKind::SingleBit,
            rate: ber,
            seed: CAMPAIGN_SEED ^ mix(layer as u64),
        };
        let codec = StorageCodec::fit(kind, n, w).expect("valid geometry");
        let mut packed = codec.encode_slice(w);
        let snapshot = if protected {
            let mut store = ProtectedCodes::protect(packed);
            let map = spec.sample(store.raw_words() * CODEWORD_BITS as usize, 1);
            struck += inject_protected_bits(&mut store, &map) as u64;
            let (snapshot, report) = store.decode();
            corrected += report.corrected as u64;
            uncorrectable += report.uncorrectable as u64;
            snapshot
        } else {
            let map = spec.sample(packed.len() * n as usize, 1);
            struck += inject_packed_bits(&mut packed, &map) as u64;
            packed
        };
        let (vals, _) = codec.decode_slice(&snapshot, DecodePolicy::Harden);
        w.copy_from_slice(&vals);
    });
    (metric, struck, corrected, uncorrectable)
}

/// Run the full fault sweep. Quick mode trains the ResNet mini only;
/// full mode sweeps all three families.
pub fn run(quick: bool) -> Resilience {
    let budget = Budget::for_mode(quick);
    let families = if quick {
        vec![ModelFamily::ResNet]
    } else {
        vec![
            ModelFamily::Transformer,
            ModelFamily::Seq2Seq,
            ModelFamily::ResNet,
        ]
    };
    let mut storage = Vec::new();
    let mut end_task = Vec::new();
    let mut protected = Vec::new();
    for family in families {
        let mut model = build(family, 42);
        model.train_steps(fp32_steps(&budget, family));
        let samples = eval_samples(&budget, family);
        let fp32_metric = model.evaluate(samples);
        let layers: Vec<Vec<f32>> = model.weight_layers().into_iter().map(|(_, w)| w).collect();
        storage.extend(storage_section(
            family.label(),
            &layers,
            &STORAGE_RATES,
            None,
        ));
        let mut push = |format: String, bits: u32, rate: f64, cell: (f64, u64, DecodeStats)| {
            end_task.push(EndTaskCell {
                model: family.label().to_string(),
                metric_name: family.metric(),
                format,
                bits,
                rate,
                fp32_metric,
                metric: cell.0,
                faults_injected: cell.1,
                repaired: cell.2.repaired(),
            });
        };
        for n in [4u32, 8] {
            for format in FormatKind::ALL {
                for &rate in &END_TASK_RATES {
                    let cell = end_task_metric(model.as_mut(), samples, Some(format), n, rate);
                    push(format.label().to_string(), n, rate, cell);
                }
            }
        }
        for &rate in &END_TASK_RATES {
            let cell = end_task_metric(model.as_mut(), samples, None, 32, rate);
            push("FP32".to_string(), 32, rate, cell);
        }
        for n in [4u32, 8] {
            for kind in PROTECTED_FORMATS {
                for &ber in &PROTECTED_BERS {
                    for prot in [false, true] {
                        let (metric, bits_struck, corrected, uncorrectable) =
                            protected_end_task(model.as_mut(), samples, kind, n, ber, prot);
                        protected.push(ProtectedCell {
                            model: family.label().to_string(),
                            metric_name: family.metric(),
                            format: kind.label().to_string(),
                            bits: n,
                            ber,
                            protected: prot,
                            fp32_metric,
                            metric,
                            bits_struck,
                            corrected,
                            uncorrectable,
                        });
                    }
                }
            }
        }
    }
    let chaos = crate::chaos::run(quick);
    let json = render_json(quick, &storage, &end_task, &protected, &chaos);
    let rendered = render_tables(&storage, &end_task, &protected, &chaos);
    Resilience {
        storage,
        end_task,
        protected,
        chaos,
        json,
        rendered,
    }
}

fn render_tables(
    storage: &[StorageCell],
    end_task: &[EndTaskCell],
    protected: &[ProtectedCell],
    chaos: &crate::chaos::ChaosBench,
) -> String {
    let mut st = TextTable::new([
        "model",
        "format",
        "bits",
        "rate",
        "policy",
        "faults",
        "clean RMS",
        "faulty RMS",
        "degradation",
        "repaired",
    ]);
    for c in storage {
        st.row([
            c.model.clone(),
            c.format.clone(),
            c.bits.to_string(),
            format!("{:.0e}", c.rate),
            c.policy.label().to_string(),
            c.outcome.faults_injected.to_string(),
            format!("{:.4}", c.outcome.clean_rms),
            format_rms(c.outcome.faulty_rms),
            format_rms(c.outcome.degradation()),
            c.outcome.stats.repaired().to_string(),
        ]);
    }
    let mut et = TextTable::new([
        "model",
        "metric",
        "format",
        "bits",
        "rate",
        "faults",
        "repaired",
        "value",
        "Δ vs FP32",
    ]);
    for c in end_task {
        et.row([
            c.model.clone(),
            c.metric_name.to_string(),
            c.format.clone(),
            c.bits.to_string(),
            format!("{:.0e}", c.rate),
            c.faults_injected.to_string(),
            c.repaired.to_string(),
            format!("{:.2}", c.metric),
            format!("{:+.2}", c.metric - c.fp32_metric),
        ]);
    }
    let mut pt = TextTable::new([
        "model",
        "metric",
        "format",
        "bits",
        "BER",
        "ECC",
        "struck",
        "corrected",
        "uncorr.",
        "value",
        "Δ vs FP32",
    ]);
    for c in protected {
        pt.row([
            c.model.clone(),
            c.metric_name.to_string(),
            c.format.clone(),
            c.bits.to_string(),
            format!("{:.0e}", c.ber),
            if c.protected { "SEC-DED" } else { "none" }.to_string(),
            c.bits_struck.to_string(),
            c.corrected.to_string(),
            c.uncorrectable.to_string(),
            format!("{:.2}", c.metric),
            format!("{:+.2}", c.metric - c.fp32_metric),
        ]);
    }
    format!(
        "Fault sweep A: weight-storage RMS damage vs single-bit fault rate\n\
         (degradation = faulty RMS − the format's own quantization floor)\n{}\n\n\
         Fault sweep B: end-task metric under hardened decode\n{}\n\n\
         Fault sweep C: SEC-DED protected vs bare storage at bit-level BER\n\
         (protected reads correct single-bit words; uncorrectable words pass through raw)\n{}\n\n\
         Fault sweep D: {}",
        st.render(),
        et.render(),
        pt.render(),
        chaos.rendered
    )
}

/// `1e300`-safe JSON number: non-finite values render as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn render_json(
    quick: bool,
    storage: &[StorageCell],
    end_task: &[EndTaskCell],
    protected: &[ProtectedCell],
    chaos: &crate::chaos::ChaosBench,
) -> String {
    let st: Vec<String> = storage
        .iter()
        .map(|c| {
            format!(
                "{{\"model\":\"{}\",\"format\":\"{}\",\"bits\":{},\"rate\":{},\"policy\":\"{}\",\
                 \"elements\":{},\"faults_injected\":{},\"clean_rms\":{},\"faulty_rms\":{},\
                 \"degradation\":{},\"detected_nonfinite\":{},\"detected_out_of_range\":{}}}",
                c.model,
                c.format,
                c.bits,
                json_num(c.rate),
                c.policy.label(),
                c.outcome.elements,
                c.outcome.faults_injected,
                json_num(c.outcome.clean_rms),
                json_num(c.outcome.faulty_rms),
                json_num(c.outcome.degradation()),
                c.outcome.stats.nonfinite,
                c.outcome.stats.out_of_range,
            )
        })
        .collect();
    let et: Vec<String> = end_task
        .iter()
        .map(|c| {
            format!(
                "{{\"model\":\"{}\",\"metric\":\"{}\",\"format\":\"{}\",\"bits\":{},\"rate\":{},\
                 \"fp32_metric\":{},\"metric\":{},\"faults_injected\":{},\"repaired\":{}}}",
                c.model,
                c.metric_name,
                c.format,
                c.bits,
                json_num(c.rate),
                json_num(c.fp32_metric),
                json_num(c.metric),
                c.faults_injected,
                c.repaired,
            )
        })
        .collect();
    let pt: Vec<String> = protected
        .iter()
        .map(|c| {
            format!(
                "{{\"model\":\"{}\",\"metric\":\"{}\",\"format\":\"{}\",\"bits\":{},\"ber\":{},\
                 \"protected\":{},\"fp32_metric\":{},\"metric\":{},\"bits_struck\":{},\
                 \"corrected\":{},\"uncorrectable\":{}}}",
                c.model,
                c.metric_name,
                c.format,
                c.bits,
                json_num(c.ber),
                c.protected,
                json_num(c.fp32_metric),
                json_num(c.metric),
                c.bits_struck,
                c.corrected,
                c.uncorrectable,
            )
        })
        .collect();
    format!(
        "{{\n \"bench\": \"fault_sweep\",\n \"mode\": \"{}\",\n \"fault_model\": \"single_bit\",\n \
         \"campaign_seed\": {},\n \"storage\": [\n  {}\n ],\n \"end_task\": [\n  {}\n ],\n \
         \"protected\": [\n  {}\n ],\n \"chaos\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        CAMPAIGN_SEED,
        st.join(",\n  "),
        et.join(",\n  "),
        pt.join(",\n  "),
        chaos.json_object(),
    )
}

/// RMS cells can be astronomically large when a raw-policy FP32 bit
/// flip lands in the exponent; keep the table readable.
fn format_rms(v: f64) -> String {
    if v.abs() < 1e4 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared() -> &'static Resilience {
        static CELL: OnceLock<Resilience> = OnceLock::new();
        CELL.get_or_init(|| run(true))
    }

    #[test]
    fn covers_every_format_at_both_word_sizes() {
        let r = shared();
        for section in ["storage", "end_task"] {
            for format in FormatKind::ALL {
                for n in [4u32, 8] {
                    let hit = match section {
                        "storage" => r
                            .storage
                            .iter()
                            .any(|c| c.format == format.label() && c.bits == n),
                        _ => r
                            .end_task
                            .iter()
                            .any(|c| c.format == format.label() && c.bits == n),
                    };
                    assert!(hit, "{section} must cover {format} at n={n}");
                }
            }
        }
        assert!(r.storage.iter().any(|c| c.format == "FP32"));
        assert!(r.end_task.iter().any(|c| c.format == "FP32"));
    }

    #[test]
    fn zero_rate_cells_sit_on_the_quantization_floor() {
        for c in &shared().storage {
            if c.rate == 0.0 {
                assert_eq!(
                    c.outcome.faults_injected, 0,
                    "{}: no faults at rate 0",
                    c.format
                );
                assert_eq!(
                    c.outcome.clean_rms.to_bits(),
                    c.outcome.faulty_rms.to_bits(),
                    "{}: zero-fault campaign must be bit-identical to clean",
                    c.format
                );
            }
        }
    }

    #[test]
    fn hardened_decode_never_loses_to_raw() {
        let r = shared();
        for raw in r.storage.iter().filter(|c| c.policy == DecodePolicy::Raw) {
            let hard = r
                .storage
                .iter()
                .find(|c| {
                    c.policy == DecodePolicy::Harden
                        && c.model == raw.model
                        && c.format == raw.format
                        && c.bits == raw.bits
                        && c.rate == raw.rate
                })
                .expect("paired hardened cell");
            assert!(
                hard.outcome.faulty_rms <= raw.outcome.faulty_rms,
                "{} n={} rate={}: hardening must not increase damage",
                raw.format,
                raw.bits,
                raw.rate
            );
        }
    }

    #[test]
    fn json_document_carries_all_sections() {
        let r = shared();
        assert!(r.json.contains("\"bench\": \"fault_sweep\""));
        assert!(r.json.contains("\"storage\""));
        assert!(r.json.contains("\"end_task\""));
        assert!(r.json.contains("\"degradation\""));
        assert!(r.json.contains("\"protected\""));
        assert!(r.json.contains("\"uncorrectable\""));
        assert!(r.json.contains("\"chaos\""));
        assert!(r.json.contains("\"breakers\":true"));
        assert!(!r.json.contains("NaN"), "JSON must stay parseable");
        assert!(!r.json.contains("inf"), "JSON must stay parseable");
    }

    #[test]
    fn protected_sweep_pairs_every_cell_and_corrects_under_fault() {
        let r = shared();
        for kind in PROTECTED_FORMATS {
            for n in [4u32, 8] {
                for &ber in &PROTECTED_BERS {
                    for prot in [false, true] {
                        assert!(
                            r.protected.iter().any(|c| c.format == kind.label()
                                && c.bits == n
                                && c.ber == ber
                                && c.protected == prot),
                            "missing protected cell {kind} n={n} ber={ber} prot={prot}"
                        );
                    }
                }
            }
        }
        // Zero-BER arms are identical: protection changes nothing when
        // nothing is struck.
        for c in r.protected.iter().filter(|c| c.ber == 0.0) {
            assert_eq!(c.bits_struck, 0);
            assert_eq!((c.corrected, c.uncorrectable), (0, 0));
            let twin = r
                .protected
                .iter()
                .find(|t| {
                    t.format == c.format
                        && t.bits == c.bits
                        && t.ber == 0.0
                        && t.protected != c.protected
                })
                .expect("paired arm");
            assert_eq!(c.metric.to_bits(), twin.metric.to_bits());
        }
        // At the highest BER the SEC-DED read must actually correct.
        let highest = PROTECTED_BERS[PROTECTED_BERS.len() - 1];
        let hot: Vec<_> = r
            .protected
            .iter()
            .filter(|c| c.protected && c.ber == highest)
            .collect();
        assert!(!hot.is_empty());
        assert!(
            hot.iter().all(|c| c.corrected > 0),
            "a {highest} BER sweep over whole weight tensors must hit correctable words"
        );
        // Unprotected arms never report ECC activity.
        for c in r.protected.iter().filter(|c| !c.protected) {
            assert_eq!((c.corrected, c.uncorrectable), (0, 0));
        }
    }

    #[test]
    fn storage_section_is_thread_count_invariant() {
        let layers: Vec<Vec<f32>> = (0..5)
            .map(|l| {
                (0..2000)
                    .map(|i| (((i * 31 + l * 77) % 199) as f32 - 99.0) * 0.017)
                    .collect()
            })
            .collect();
        let serial = storage_section("synthetic", &layers, &STORAGE_RATES, Some(1));
        let parallel = storage_section("synthetic", &layers, &STORAGE_RATES, Some(8));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                a.outcome.faulty_rms.to_bits(),
                b.outcome.faulty_rms.to_bits(),
                "{} n={} rate={} {}: thread count leaked into the result",
                a.format,
                a.bits,
                a.rate,
                a.policy.label()
            );
            assert_eq!(a.outcome, b.outcome);
        }
    }
}
