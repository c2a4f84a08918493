//! Workspace-level acceptance tests for the fault-injection subsystem:
//! the two contracts the whole stack (core codecs → resilience campaigns
//! → model evaluation) must uphold together.
//!
//! 1. A campaign is a pure function of its seed — the fault map and
//!    every reported metric are bit-identical at any worker count.
//! 2. A zero-fault campaign is a no-op: running the full
//!    sample-inject-decode machinery at rate 0 is bit-identical to the
//!    uninstrumented encode/decode path.

use adaptivfloat::{DecodePolicy, FormatKind, StorageCodec};
use af_models::{evaluate_with_weight_transform, MiniResNet, QuantizableModel};
use af_resilience::{inject_packed, run_weight_campaign, CampaignConfig, FaultKind, FaultSpec};

fn trained_model() -> MiniResNet {
    let mut m = MiniResNet::new(7);
    m.train_steps(40);
    m
}

fn weight_layers(m: &mut MiniResNet) -> Vec<Vec<f32>> {
    m.weight_layers().into_iter().map(|(_, w)| w).collect()
}

#[test]
fn same_seed_is_bit_identical_at_one_and_eight_threads() {
    let layers = weight_layers(&mut trained_model());
    // The fault map itself is a pure function of (seed, element).
    let spec = FaultSpec {
        kind: FaultKind::MultiBit { flips: 2 },
        rate: 0.01,
        seed: 99,
    };
    assert_eq!(spec.sample(10_000, 8), spec.sample(10_000, 8));
    // And so is every campaign metric, regardless of worker count.
    for kind in FormatKind::ALL {
        let mut cfg = CampaignConfig::single_bit(5e-3, 2024);
        cfg.threads = Some(1);
        let one = run_weight_campaign(kind, 8, &layers, &cfg).unwrap();
        cfg.threads = Some(8);
        let eight = run_weight_campaign(kind, 8, &layers, &cfg).unwrap();
        assert_eq!(one, eight, "{kind}: thread count leaked into metrics");
        assert_eq!(one.clean_rms.to_bits(), eight.clean_rms.to_bits());
        assert_eq!(one.faulty_rms.to_bits(), eight.faulty_rms.to_bits());
    }
}

#[test]
fn zero_fault_injection_leaves_stored_words_untouched() {
    let layers = weight_layers(&mut trained_model());
    for kind in FormatKind::ALL {
        let codec = StorageCodec::fit(kind, 8, &layers[0]).unwrap();
        let clean = codec.encode_slice(&layers[0]);
        let mut struck = clean.clone();
        let map = FaultSpec::single_bit(0.0, 1).sample(layers[0].len(), 8);
        assert_eq!(inject_packed(&mut struck, &map), 0);
        assert_eq!(clean, struck, "{kind}: zero-rate injection mutated storage");
    }
}

#[test]
fn zero_fault_campaign_evaluates_bit_identically_to_uninstrumented() {
    let mut model = trained_model();
    let mut run = |inject: bool| {
        evaluate_with_weight_transform(&mut model, 20, |layer, w| {
            let codec = StorageCodec::fit(FormatKind::AdaptivFloat, 8, w).unwrap();
            let mut packed = codec.encode_slice(w);
            if inject {
                // The full campaign machinery, at rate 0.
                let map = FaultSpec::single_bit(0.0, layer as u64).sample(w.len(), 8);
                assert_eq!(inject_packed(&mut packed, &map), 0);
            }
            let (vals, stats) = codec.decode_slice(&packed, DecodePolicy::Harden);
            assert_eq!(stats.repaired(), 0);
            w.copy_from_slice(&vals);
        })
    };
    let uninstrumented = run(false);
    let zero_fault = run(true);
    assert_eq!(
        uninstrumented.to_bits(),
        zero_fault.to_bits(),
        "zero-fault campaign must be a bit-identical no-op"
    );
}
