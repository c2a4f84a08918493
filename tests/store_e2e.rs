//! Durable store, end to end: a serving registry journaled through the
//! write-ahead log survives an abrupt process death (simulated by
//! dropping every handle without any orderly shutdown or checkpoint)
//! and recovers to **bit-identical** serving:
//!
//! 1. **Warm restart** — protected, fused and protected+fused variants
//!    reopen from their containers with zero requantization (the LUT cache write-lock
//!    counter does not move during recovery) and answer the exact bits
//!    the pre-crash process served.
//! 2. **Generation monotonicity** — scrub rebuilds and hot swaps are
//!    WAL records, so generation counters and ECC history keep counting
//!    across restarts instead of resetting.
//! 3. **Torn tails** — a WAL cut mid-record drops the tail cleanly and
//!    keeps everything before it.
//! 4. **Typed refusal + rollback** — a corrupt container fails recovery
//!    with a typed error (never a panic, never wrong bits), and rolling
//!    back to the last checkpoint restores a servable store.
//!
//! The tests share the process-wide LUT cache counter, so they run
//! serialized behind one mutex.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use adaptivfloat::FormatKind;
use af_models::{FrozenMlp, ModelFamily};
use af_serve::{DurableOpen, DurableStore, Engine, EngineConfig, VariantSpec};
use af_store::{container_file_name, Store, SyncPolicy};

const IN_DIM: usize = 16;
const DIMS: [usize; 3] = [IN_DIM, 24, 6];
const SEED: u64 = 2020;

/// Serializes the tests: the zero-requantization assertion reads the
/// process-wide LUT cache write-lock counter, which concurrent
/// registrations in sibling tests would race.
fn lut_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("af-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn open(root: &Path) -> DurableOpen {
    DurableStore::open(root, SyncPolicy::EveryRecord, 0).expect("open durable store")
}

fn protected_spec(id: &str) -> VariantSpec {
    VariantSpec::quantized(
        id,
        ModelFamily::ResNet,
        FormatKind::AdaptivFloat,
        8,
        SEED,
        &DIMS,
    )
    .protected()
}

fn fused_spec(id: &str) -> VariantSpec {
    VariantSpec::quantized(
        id,
        ModelFamily::Transformer,
        FormatKind::AdaptivFloat,
        8,
        SEED ^ 1,
        &DIMS,
    )
    .fused()
}

#[test]
fn crash_recovery_is_bit_identical_with_zero_requantization() {
    let _guard = lut_guard();
    let root = tmp_root("crash");
    let inputs = FrozenMlp::synth_inputs(33, 4, IN_DIM);
    let ids = ["m/fp32", "m/protected", "m/fused", "m/protected-fused"];
    // Per-sample rows, then the whole batch (the fused GEMM's path).
    let answers = |model: &FrozenMlp| -> Vec<Vec<u32>> {
        let mut rows: Vec<Vec<u32>> = (0..4)
            .map(|r| bits(&model.evaluate(inputs.row(r))))
            .collect();
        rows.push(bits(model.evaluate_batch(&inputs).data()));
        rows
    };

    // Pre-crash process: register one variant per serving mode and
    // record what each answers.
    let mut want: Vec<Vec<Vec<u32>>> = Vec::new();
    {
        let opened = open(&root);
        assert_eq!(opened.report.recovered_variants, 0, "fresh store");
        opened
            .registry
            .register(&VariantSpec::fp32(ids[0], ModelFamily::ResNet, SEED, &DIMS))
            .unwrap();
        opened.registry.register(&protected_spec(ids[1])).unwrap();
        opened.registry.register(&fused_spec(ids[2])).unwrap();
        opened
            .registry
            .register(&protected_spec(ids[3]).fused())
            .unwrap();
        for id in ids {
            want.push(answers(&opened.registry.get(id).unwrap().model));
        }
        // The fused GEMM over protected storage answers the dense
        // protected twin's bits.
        assert_eq!(want[3], want[1]);
        // Simulated kill -9: drop everything — no checkpoint, no
        // shutdown. The WAL (EveryRecord sync) is all that survives.
    }

    // Warm restart: recovery must not quantize anything — every
    // codebook the restored plans reference is already in the
    // process-wide cache, so the write-lock counter cannot move.
    let locks_before = adaptivfloat::lut::write_lock_acquisitions();
    let opened = open(&root);
    assert_eq!(
        adaptivfloat::lut::write_lock_acquisitions(),
        locks_before,
        "recovery must not build plans or codebooks"
    );
    assert_eq!(opened.report.recovered_variants, 4);
    assert!(opened.report.recovery_us > 0);
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    assert_eq!(opened.registry.ids(), sorted);

    for (id, rows) in ids.iter().zip(&want) {
        let v = opened.registry.get(id).unwrap();
        assert_eq!(&answers(&v.model), rows, "{id} must answer pre-crash bits");
    }
    // Each serving mode recovered *as* that mode, not as plain FP32.
    let protected = opened.registry.get(ids[1]).unwrap();
    assert!(protected.model.format_name().ends_with("+secded"));
    assert!(protected.protected.is_some());
    let fused = opened.registry.get(ids[2]).unwrap();
    assert!(fused.model.fused_layers() > 0, "fused GEMM must come back");
    let both = opened.registry.get(ids[3]).unwrap();
    assert!(both.protected.is_some());
    assert_eq!(both.model.fused_layers(), both.model.depth());

    // The engine serves the recovered registry and reports the store.
    let engine = Engine::start(Arc::clone(&opened.registry), EngineConfig::default());
    engine.attach_store(Arc::clone(&opened.store));
    let got = engine.infer(ids[1], inputs.row(0).to_vec()).unwrap();
    assert_eq!(bits(&got), want[1][0]);
    let stats = engine.stats_json();
    assert!(stats.contains("\"store\":{\"checkpoint_version\":0"));
    assert!(stats.contains("\"recovered_variants\":4"));
    assert!(stats.contains("\"journal_errors\":0"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn generation_and_ecc_history_survive_restarts_monotonically() {
    let _guard = lut_guard();
    let root = tmp_root("gen");
    let id = "m/protected";
    let inputs = FrozenMlp::synth_inputs(7, 1, IN_DIM);

    let baseline = {
        let opened = open(&root);
        let v = opened.registry.register(&protected_spec(id)).unwrap();
        assert_eq!(v.generation, 0);
        let baseline = bits(&v.model.evaluate(inputs.row(0)));
        // A double-bit upset forces a rebuild from the master and a
        // generation-bumping hot swap — both journaled.
        {
            let mut store = v.protected.as_ref().unwrap().lock().unwrap();
            store.flip_bit(0, 2, 7);
            store.flip_bit(0, 2, 33);
        }
        let outcome = opened.registry.scrub_variant(id).unwrap();
        assert!(outcome.rebuilt);
        assert_eq!(outcome.generation, 1);
        baseline
    };

    // Restart 1: the generation and the ECC history both survived.
    let gen_after_first = {
        let opened = open(&root);
        let v = opened.registry.get(id).unwrap();
        assert_eq!(v.generation, 1, "rebuild generation must survive restart");
        assert_eq!(bits(&v.model.evaluate(inputs.row(0))), baseline);
        let store = v.protected.as_ref().unwrap().lock().unwrap();
        assert_eq!(store.rebuilds(), 1);
        assert_eq!(store.ecc_stats().detected_uncorrectable, 1);
        drop(store);
        // A re-register on the recovered registry keeps counting from
        // the recovered generation, not from zero.
        let swapped = opened.registry.register(&protected_spec(id)).unwrap();
        assert_eq!(swapped.generation, 2);
        swapped.generation
    };

    // Restart 2: still monotone.
    let opened = open(&root);
    let v = opened.registry.get(id).unwrap();
    assert_eq!(v.generation, gen_after_first);
    assert_eq!(bits(&v.model.evaluate(inputs.row(0))), baseline);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_wal_tail_is_dropped_and_everything_before_it_recovers() {
    let _guard = lut_guard();
    let root = tmp_root("torn");
    let inputs = FrozenMlp::synth_inputs(11, 1, IN_DIM);

    let baseline = {
        let opened = open(&root);
        let v = opened.registry.register(&protected_spec("m/a")).unwrap();
        opened.registry.register(&fused_spec("m/b")).unwrap();
        bits(&v.model.evaluate(inputs.row(0)))
    };

    // A crash mid-append leaves a torn record at the tail: fake one
    // with a partial header (7 of the 8 header bytes).
    {
        use std::io::Write;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("wal.log"))
            .unwrap();
        wal.write_all(&[0xFF; 7]).unwrap();
    }

    let opened = open(&root);
    assert_eq!(opened.report.torn_tail_bytes_dropped, 7);
    assert_eq!(opened.report.recovered_variants, 2);
    assert_eq!(opened.registry.ids(), ["m/a", "m/b"]);
    let v = opened.registry.get("m/a").unwrap();
    assert_eq!(bits(&v.model.evaluate(inputs.row(0))), baseline);
    // The truncated log keeps accepting appends: mutate and restart
    // once more.
    assert!(opened.registry.unregister("m/b"));
    drop(opened);
    let opened = open(&root);
    assert_eq!(opened.registry.ids(), ["m/a"]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_container_fails_typed_and_rollback_restores_the_checkpoint() {
    let _guard = lut_guard();
    let root = tmp_root("rollback");
    let inputs = FrozenMlp::synth_inputs(19, 1, IN_DIM);

    let baseline = {
        let opened = open(&root);
        let v = opened.registry.register(&protected_spec("m/a")).unwrap();
        let baseline = bits(&v.model.evaluate(inputs.row(0)));
        // Fold m/a into checkpoint 1, then register m/b on top (live
        // container + WAL only).
        assert_eq!(opened.store.checkpoint().unwrap(), 1);
        opened.registry.register(&fused_spec("m/b")).unwrap();
        baseline
    };

    // Smash m/b's live container.
    let container = root.join("variants").join(container_file_name("m/b"));
    let mut bytes = std::fs::read(&container).unwrap();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 32] {
        *b ^= 0xA5;
    }
    std::fs::write(&container, &bytes).unwrap();

    // Recovery refuses the bad store with a typed error — no panic, no
    // silently-wrong weights.
    let err = DurableStore::open(&root, SyncPolicy::EveryRecord, 0)
        .expect_err("corrupt container must fail recovery");
    assert!(
        matches!(err.kind(), "corrupt" | "malformed" | "truncated"),
        "unexpected error class {}: {err}",
        err.kind()
    );

    // The operator rolls back to the checkpoint; m/b is gone, m/a
    // serves its exact old bits.
    Store::rollback(&root, 1).unwrap();
    let opened = open(&root);
    assert_eq!(opened.registry.ids(), ["m/a"]);
    let v = opened.registry.get("m/a").unwrap();
    assert_eq!(bits(&v.model.evaluate(inputs.row(0))), baseline);
    let _ = std::fs::remove_dir_all(&root);
}
