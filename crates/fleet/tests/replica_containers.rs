//! Every container a fleet writes is the container its own replica
//! would export. A registration encodes an unprotected snapshot's
//! container body once and each replica's store writes those bytes
//! behind its own head (generation and rebuild count are per shard);
//! protected replicas export their own storage. Whatever path wrote a
//! file — registration, hot swap, reconciliation after a revive, or a
//! checkpoint after scrubs and repairs — it must equal
//! `encode_container(&export_variant(&live))` for that shard, and a
//! shard restored from disk must answer the bits it served.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adaptivfloat::FormatKind;
use af_fleet::{FleetConfig, FleetRouter, Shard, ShardConfig};
use af_models::{FrozenMlp, ModelFamily};
use af_serve::durable::export_variant;
use af_serve::VariantSpec;
use af_store::{container_file_name, encode_container};

const DIMS: [usize; 4] = [12, 20, 16, 6];

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("af-fleet-containers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One spec of every kind a fleet serves: FP32, quantized (dense, and
/// a format whose codes may not round-trip), protected, fused and
/// protected+fused.
fn specs(seed: u64) -> Vec<VariantSpec> {
    use FormatKind::{AdaptivFloat, Float, Posit, Uniform};
    use ModelFamily::{ResNet, Seq2Seq, Transformer};
    let q = |name: &str, family, kind, n, s: u64| {
        VariantSpec::quantized(&format!("rc/{name}"), family, kind, n, seed + s, &DIMS)
    };
    vec![
        VariantSpec::fp32("rc/fp32", Transformer, seed, &DIMS),
        q("af8", Transformer, AdaptivFloat, 8, 1),
        q("posit8", ResNet, Posit, 8, 2),
        q("float8", Seq2Seq, Float, 8, 3),
        q("af8-protected", Transformer, AdaptivFloat, 8, 4).protected(),
        q("uniform8-protected", Seq2Seq, Uniform, 8, 5).protected(),
        q("af8-fused", Transformer, AdaptivFloat, 8, 6).fused(),
        q("af4-fused", ResNet, AdaptivFloat, 4, 7).fused(),
        q("uniform8-fused", Seq2Seq, Uniform, 8, 8).fused(),
        q("af8-protected-fused", Transformer, AdaptivFloat, 8, 9)
            .protected()
            .fused(),
    ]
}

fn live_shards(router: &FleetRouter) -> Vec<Arc<Shard>> {
    router
        .live_shards()
        .into_iter()
        .filter_map(|i| router.shard(i))
        .collect()
}

/// Assert that every container under `dir` of `shard` is its live
/// variant's export, and that one exists for every variant it serves.
/// Returns how many containers were compared.
fn assert_containers_are_exports(shard: &Shard, dir: &Path) -> usize {
    let ids = shard.ids();
    for id in &ids {
        let live = shard.engine().registry().get(id).expect("live variant");
        let path = dir.join(container_file_name(id));
        let on_disk =
            std::fs::read(&path).unwrap_or_else(|e| panic!("shard {} {id}: {e}", shard.index()));
        let want = encode_container(&export_variant(&live));
        assert!(
            on_disk == want,
            "shard {} {id}: container differs from the live export",
            shard.index()
        );
    }
    ids.len()
}

/// Per variant of `shard`: its id, its container as exported now, and
/// its answers' bits on `inputs`.
type Served = Vec<(String, Vec<u8>, Vec<Vec<u32>>)>;

fn served(shard: &Shard, inputs: &[Vec<f32>]) -> Served {
    shard
        .ids()
        .into_iter()
        .map(|id| {
            let variant = shard.engine().registry().get(&id).expect("live variant");
            let container = encode_container(&export_variant(&variant));
            let bits = inputs
                .iter()
                .map(|x| {
                    let out = shard.engine().infer(&id, x.clone()).expect("answer");
                    out.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            (id, container, bits)
        })
        .collect()
}

#[test]
fn every_replica_container_is_its_own_export() {
    let root = tmp_root("all");
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
    let specs = specs(40);
    for spec in &specs {
        router.register_model(spec).expect("register");
    }
    // Hot swaps: the same spec again (every replica rewrites its
    // container at a new generation), twice for one model.
    for spec in specs.iter().step_by(3) {
        router.register_model(spec).expect("hot swap");
    }
    router.register_model(&specs[1]).expect("hot swap");
    let live = |shard: &Shard| shard.root().join("variants");
    let mut compared = 0;
    for shard in live_shards(&router) {
        compared += assert_containers_are_exports(&shard, &live(&shard));
    }
    assert_eq!(compared, 2 * specs.len(), "R=2 replicas of every spec");

    // A shard away while a model's spec changes gets it re-placed by
    // reconciliation at revive — the other path that shares one body.
    let moved = &specs[6];
    let away = router.placement(&moved.id)[1];
    assert!(router.kill(away));
    let mut changed = moved.clone();
    changed.seed += 100;
    router
        .register_model(&changed)
        .expect("swap while a replica is away");
    router.revive(away, ShardConfig::default()).expect("revive");
    for shard in live_shards(&router) {
        assert_containers_are_exports(&shard, &live(&shard));
    }

    // Upsets: a corrected single-bit error on one replica of each
    // protected model, and an uncorrectable one (a rebuild) on one.
    // Scrubs then leave each replica its own storage and ECC history,
    // and a checkpoint writes what each one holds.
    for spec in specs.iter().filter(|s| s.protected) {
        let holder = router.shard(router.placement(&spec.id)[0]).unwrap();
        let v = holder.engine().registry().get(&spec.id).unwrap();
        v.protected
            .as_ref()
            .unwrap()
            .lock()
            .unwrap()
            .flip_bit(0, 1, 7);
    }
    let struck = &specs[4];
    {
        let holder = router.shard(router.placement(&struck.id)[1]).unwrap();
        let v = holder.engine().registry().get(&struck.id).unwrap();
        let mut store = v.protected.as_ref().unwrap().lock().unwrap();
        store.flip_bit(1, 0, 3);
        store.flip_bit(1, 0, 44);
    }
    let scrub = router.scrub_all();
    assert_eq!(
        scrub.corrected,
        specs.iter().filter(|s| s.protected).count()
    );
    assert_eq!(scrub.rebuilds, 1);
    for shard in live_shards(&router) {
        let version = shard.checkpoint().expect("checkpoint");
        let ckpt = shard.root().join(format!("ckpt-{version:06}"));
        assert_containers_are_exports(&shard, &ckpt);
    }
    // More WAL after the checkpoint: one swap to replay on restore.
    router
        .register_model(&specs[0])
        .expect("hot swap after checkpoint");

    let inputs: Vec<Vec<f32>> = (0..3)
        .map(|r| FrozenMlp::synth_inputs(77 + r, 1, DIMS[0]).row(0).to_vec())
        .collect();
    let before: Vec<(usize, Served)> = live_shards(&router)
        .iter()
        .map(|s| (s.index(), served(s, &inputs)))
        .collect();
    router.shutdown();
    drop(router);

    // Each shard restored from its own directory exports the same
    // containers (generations, storage and ECC history included) and
    // answers the same bits.
    for (index, want) in before {
        let shard = Shard::open(index, &root, ShardConfig::default()).expect("reopen shard");
        let got = served(&shard, &inputs);
        assert_eq!(got.len(), want.len(), "shard {index}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0, "shard {index}");
            assert!(g.1 == w.1, "shard {index} {}: restored export differs", w.0);
            assert_eq!(g.2, w.2, "shard {index} {}: restored answers differ", w.0);
        }
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}
