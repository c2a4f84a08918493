//! Registering a variant while its checkpoint's FP32 twin is resident
//! copies the twin's weights instead of synthesizing them again. That
//! must be invisible: every snapshot built that way equals a cold
//! [`ModelRegistry::build`] of the same spec in every weight bit, format
//! label, weight and activation recipe, batch-1 and batch-16 output, and
//! exported container byte. Covered: both registration orders, hot swaps
//! of the FP32 id and of a quantized id, and a storage refresh after an
//! uncorrectable ECC error, at the served shape and at a small one.

use std::sync::Arc;

use adaptivfloat::FormatKind;
use af_models::{FrozenMlp, ModelFamily};
use af_serve::durable::export_variant;
use af_serve::{ModelRegistry, ModelVariant, VariantSpec};
use af_store::encode_container;

const SHAPES: [&[usize]; 2] = [&[96, 192, 192, 48], &[16, 24, 6]];
const SEED: u64 = 0x5E12_F00D;
/// Indices of the protected specs in [`specs`].
const PROTECTED: [usize; 2] = [5, 6];

/// fp32 first, then AdaptivFloat8, AdaptivFloat8-fused, Uniform8-fused,
/// Posit8, AdaptivFloat8-protected and AdaptivFloat8-protected-fused,
/// all of one checkpoint. Last come a Posit8-weights-only and an
/// AdaptivFloat8-activations-only variant: neither serves the
/// checkpoint's FP32 weights as they are, so neither may stand in for
/// the twin.
fn specs(dims: &[usize]) -> Vec<VariantSpec> {
    let family = ModelFamily::Transformer;
    let q = |id: &str, kind| VariantSpec::quantized(id, family, kind, 8, SEED, dims);
    vec![
        VariantSpec::fp32("fp32", family, SEED, dims),
        q("af8", FormatKind::AdaptivFloat),
        q("af8-fused", FormatKind::AdaptivFloat).fused(),
        q("uniform8-fused", FormatKind::Uniform).fused(),
        q("posit8", FormatKind::Posit),
        q("af8-protected", FormatKind::AdaptivFloat).protected(),
        q("af8-protected-fused", FormatKind::AdaptivFloat)
            .protected()
            .fused(),
        VariantSpec {
            act_format: None,
            ..q("posit8-weights", FormatKind::Posit)
        },
        VariantSpec {
            weight_format: None,
            ..q("af8-acts", FormatKind::AdaptivFloat)
        },
    ]
}

/// `spec` built cold, always synthesized, and published on a fresh
/// registry until it reaches `generation`.
fn cold(spec: &VariantSpec, generation: u64) -> Arc<ModelVariant> {
    let built = ModelRegistry::build(spec).expect("cold build");
    let registry = ModelRegistry::new();
    for _ in 0..generation {
        registry.publish(built.clone(), None);
    }
    registry.publish(built, None)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn container(v: &ModelVariant) -> Vec<u8> {
    encode_container(&export_variant(v))
}

fn assert_same(got: &ModelVariant, want: &ModelVariant) {
    let id = &got.id;
    assert_eq!(id, &want.id);
    assert_eq!(got.generation, want.generation, "{id}");
    let (g, w) = (&got.model, &want.model);
    assert_eq!(g.format_name(), w.format_name(), "{id}");
    assert_eq!(g.depth(), w.depth(), "{id}");
    for l in 0..g.depth() {
        let ((gd, gs), (wd, ws)) = (g.weight_data(l), w.weight_data(l));
        assert_eq!(gs, ws, "{id} layer {l} shape");
        assert!(bits(&gd) == bits(&wd), "{id} layer {l} weights differ");
    }
    assert_eq!(g.weight_quant_recipe(), w.weight_quant_recipe(), "{id}");
    let act = |m: &FrozenMlp| {
        m.act_recipe()
            .map(|(kind, n, maxes)| (kind, n, bits(maxes)))
    };
    assert_eq!(act(g), act(w), "{id}");
    assert_eq!(g.fused_layers(), w.fused_layers(), "{id}");
    let x = FrozenMlp::synth_inputs(SEED ^ 0x7E57, 16, g.in_dim());
    assert_eq!(
        bits(&g.evaluate(x.row(0))),
        bits(&w.evaluate(x.row(0))),
        "{id} b=1"
    );
    assert_eq!(
        bits(g.evaluate_batch(&x).data()),
        bits(w.evaluate_batch(&x).data()),
        "{id} b=16"
    );
    assert!(
        container(got) == container(want),
        "{id} container bytes differ"
    );
}

#[test]
fn twin_first_registration_matches_cold_builds() {
    for dims in SHAPES {
        let registry = ModelRegistry::new();
        for spec in specs(dims) {
            let got = registry.register(&spec).unwrap();
            assert_same(&got, &cold(&spec, 0));
        }
    }
}

#[test]
fn twin_last_registration_matches_and_later_swaps_reuse_it() {
    for dims in SHAPES {
        let specs = specs(dims);
        let registry = ModelRegistry::new();
        // Quantized variants ahead of their twin each synthesize.
        for spec in specs.iter().rev() {
            let got = registry.register(spec).unwrap();
            assert_same(&got, &cold(spec, 0));
        }
        // With the twin now resident, hot swaps of every quantized id
        // build from its copy.
        for spec in &specs[1..] {
            let got = registry.register(spec).unwrap();
            assert_same(&got, &cold(spec, 1));
        }
    }
}

#[test]
fn hot_swapping_the_fp32_id_starts_from_its_own_snapshot() {
    for dims in SHAPES {
        let specs = specs(dims);
        let registry = ModelRegistry::new();
        registry.register(&specs[0]).unwrap();
        for generation in 1..=2 {
            let got = registry.register(&specs[0]).unwrap();
            assert_same(&got, &cold(&specs[0], generation));
        }
        // The swapped-in snapshot is still a faithful twin.
        for spec in &specs[1..] {
            let got = registry.register(spec).unwrap();
            assert_same(&got, &cold(spec, 0));
        }
    }
}

#[test]
fn storage_refresh_after_uncorrectable_error_matches_a_twinless_registry() {
    for dims in SHAPES {
        let specs = specs(dims);
        for spec in PROTECTED.map(|i| &specs[i]) {
            // `with_twin` refreshes from its resident fp32 twin's copy;
            // `twinless` holds only the cold build and must synthesize.
            let with_twin = ModelRegistry::new();
            with_twin.register(&specs[0]).unwrap();
            with_twin.register(spec).unwrap();
            let twinless = ModelRegistry::new();
            twinless.publish(ModelRegistry::build(spec).unwrap(), None);
            for registry in [&with_twin, &twinless] {
                let variant = registry.get(&spec.id).unwrap();
                let store = variant.protected.as_ref().expect("protected storage");
                {
                    let mut store = store.lock().unwrap();
                    store.flip_bit(0, 2, 6);
                    store.flip_bit(0, 2, 51);
                }
                let outcome = registry.scrub_variant(&spec.id).unwrap();
                assert_eq!(outcome.uncorrectable, 1);
                assert!(outcome.rebuilt);
                assert_eq!(outcome.generation, 1);
            }
            let refreshed = with_twin.get(&spec.id).unwrap();
            assert_same(&refreshed, &twinless.get(&spec.id).unwrap());
            // Rebuilt storage serves what the cold build served.
            let x = FrozenMlp::synth_inputs(SEED, 16, dims[0]);
            let cold = cold(spec, 0);
            assert_eq!(
                bits(&refreshed.model.evaluate(x.row(0))),
                bits(&cold.model.evaluate(x.row(0)))
            );
            assert_eq!(
                bits(refreshed.model.evaluate_batch(&x).data()),
                bits(cold.model.evaluate_batch(&x).data())
            );
        }
    }
}
