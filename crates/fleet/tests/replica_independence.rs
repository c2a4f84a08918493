//! A model is built once per `register_model` and published as a clone
//! on each replica: the replicas share one immutable snapshot and must
//! answer bit-identically, yet own their protected storage, generation
//! counter and WAL outright — a fault and its repair on one replica
//! leave the other untouched.

use std::path::PathBuf;
use std::sync::Arc;

use adaptivfloat::FormatKind;
use af_fleet::{FleetConfig, FleetRouter, Shard, ShardConfig};
use af_models::{FrozenMlp, ModelFamily};
use af_resilience::{EccStats, ProtectedCodes};
use af_serve::{ModelRegistry, ModelVariant, VariantSpec};

const DIMS: [usize; 3] = [12, 20, 6];

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("af-fleet-replica-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a replica owns for `id`: its generation, its protected
/// codes and parity as stored, their ECC history, and its WAL.
#[derive(Debug, PartialEq)]
struct ReplicaState {
    generation: u64,
    codes: Vec<ProtectedCodes>,
    ecc: EccStats,
    wal_records: u64,
    wal: Vec<u8>,
}

fn state(shard: &Shard, id: &str) -> ReplicaState {
    let variant = variant(shard, id);
    let store = variant.protected.as_ref().expect("protected variant");
    let store = store.lock().unwrap();
    ReplicaState {
        generation: variant.generation,
        codes: store.layers().iter().map(|l| l.codes.clone()).collect(),
        ecc: store.ecc_stats(),
        wal_records: shard.store().stats().wal_records,
        wal: std::fs::read(shard.root().join("wal.log")).expect("shard WAL"),
    }
}

fn variant(shard: &Shard, id: &str) -> Arc<ModelVariant> {
    shard
        .engine()
        .registry()
        .get(id)
        .expect("replica holds the model")
}

fn answer(shard: &Shard, id: &str, input: &[f32]) -> Vec<u32> {
    let out = shard
        .engine()
        .infer(id, input.to_vec())
        .expect("replica answers");
    out.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn replicas_share_a_build_but_not_storage_generation_or_wal() {
    let root = tmp_root("indep");
    let router = FleetRouter::new(
        &root,
        FleetConfig {
            replicas: 2,
            ..FleetConfig::default()
        },
    );
    for i in 0..3 {
        router.join(i, ShardConfig::default()).expect("join shard");
    }
    let id = "indep/af8-protected";
    let spec = VariantSpec::quantized(
        id,
        ModelFamily::Transformer,
        FormatKind::AdaptivFloat,
        8,
        17,
        &DIMS,
    )
    .protected();
    let placement = router.register_model(&spec).expect("register");
    let (hit, other) = (
        router.shard(placement[0]).unwrap(),
        router.shard(placement[1]).unwrap(),
    );

    // One build, two replicas sharing its snapshot (not its storage),
    // both answering the build's bits, each at its own generation 0.
    let (hit_v, other_v) = (variant(&hit, id), variant(&other, id));
    assert!(Arc::ptr_eq(&hit_v.model, &other_v.model), "one snapshot");
    assert!(
        !Arc::ptr_eq(
            hit_v.protected.as_ref().unwrap(),
            other_v.protected.as_ref().unwrap()
        ),
        "each replica owns its protected storage"
    );
    let input = FrozenMlp::synth_inputs(3, 1, DIMS[0]).row(0).to_vec();
    let reference = ModelRegistry::build(&spec).expect("reference build");
    let want: Vec<u32> = reference
        .model
        .evaluate(&input)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(answer(&hit, id, &input), want);
    assert_eq!(answer(&other, id, &input), want);
    let mut gens = router.generations(id);
    gens.sort_unstable();
    let mut expect = vec![(placement[0], 0), (placement[1], 0)];
    expect.sort_unstable();
    assert_eq!(gens, expect);
    let before = state(&other, id);
    assert_eq!(
        state(&hit, id).codes,
        before.codes,
        "same build, same codes"
    );

    // A single-bit upset on one replica is corrected in place there…
    {
        let v = hit.engine().registry().get(id).unwrap();
        v.protected
            .as_ref()
            .unwrap()
            .lock()
            .unwrap()
            .flip_bit(0, 0, 5);
    }
    let outcome = hit.engine().registry().scrub_variant(id).unwrap();
    assert_eq!((outcome.corrected, outcome.rebuilt), (1, false));
    // …and a double-bit upset forces a rebuild and a generation bump there.
    {
        let v = hit.engine().registry().get(id).unwrap();
        let mut store = v.protected.as_ref().unwrap().lock().unwrap();
        store.flip_bit(1, 0, 2);
        store.flip_bit(1, 0, 40);
    }
    let outcome = hit.engine().registry().scrub_variant(id).unwrap();
    assert!(outcome.rebuilt);
    assert_eq!(outcome.generation, 1);
    let hit_after = state(&hit, id);
    assert_eq!(hit_after.generation, 1);
    assert!(
        !Arc::ptr_eq(&variant(&hit, id).model, &other_v.model),
        "the rebuild republished on the struck replica"
    );
    assert_eq!(hit_after.ecc.corrected, 1);
    assert_eq!(hit_after.ecc.detected_uncorrectable, 1);
    assert!(hit_after.wal_records > before.wal_records);

    // The other replica's snapshot, storage, history, generation and
    // WAL are exactly as they were, and both still answer the build's
    // bits.
    assert!(Arc::ptr_eq(&variant(&other, id).model, &other_v.model));
    assert_eq!(state(&other, id), before);
    assert_eq!(answer(&hit, id, &input), want);
    assert_eq!(answer(&other, id, &input), want);

    // A fleet-wide hot swap bumps each replica's own counter.
    router.register_model(&spec).expect("hot swap");
    let gens: Vec<(usize, u64)> = router.generations(id);
    for (shard, generation) in gens {
        let want = if shard == placement[0] { 2 } else { 1 };
        assert_eq!(generation, want, "shard {shard}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
