//! An engine runs exactly its configured number of compute threads,
//! however many variants it serves.
//!
//! This binary holds exactly one test: tests of one binary run as
//! threads of one process, so another test's engine would be counted.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use af_models::{FrozenMlp, ModelFamily};
use af_serve::{Engine, EngineConfig, InjectedFault, ModelRegistry, VariantSpec};

/// This process's engine compute threads: threads named `af-serve:…`
/// other than the reactor and the scrubber. `comm` keeps at most 15
/// bytes, so `af-serve:reactor` reads as `af-serve:reacto`.
fn compute_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| {
            let name = comm.trim_end();
            name.starts_with("af-serve:")
                && !name.starts_with("af-serve:reacto")
                && !name.starts_with("af-serve:scrub")
        })
        .count()
}

#[test]
fn sixteen_variants_share_two_compute_threads() {
    let registry = Arc::new(ModelRegistry::new());
    let ids: Vec<String> = (0..16).map(|k| format!("pool/fp32-{k}")).collect();
    for (k, id) in ids.iter().enumerate() {
        let spec = VariantSpec::fp32(id, ModelFamily::ResNet, 60 + k as u64, &[12, 24, 6]);
        registry.register(&spec).unwrap();
    }
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            compute_slots: Some(2),
            ..EngineConfig::default()
        },
    );
    // Slow passes keep both workers busy while every variant has work.
    engine.inject_fault(Some(InjectedFault::slow(Duration::from_millis(5))));
    let x = FrozenMlp::synth_inputs(61, 16, 12);
    let (tx, rx) = mpsc::channel();
    for (k, id) in ids.iter().enumerate() {
        let input = x.row(k).to_vec();
        engine
            .enqueue(id, input, Duration::from_secs(30), k as u64, &tx)
            .unwrap();
    }
    let mut peak = compute_threads();
    for _ in 0..ids.len() {
        let (tag, result) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let k = tag as usize;
        let want = registry.get(&ids[k]).unwrap().model.evaluate(x.row(k));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&result.unwrap()), bits(&want), "{}", ids[k]);
        peak = peak.max(compute_threads());
    }
    assert!(
        peak <= 2,
        "{peak} compute threads while 16 variants had work"
    );
    // A thread names itself as it starts, so a slow starter may not
    // show yet; wait for it.
    let give_up = Instant::now() + Duration::from_secs(10);
    while compute_threads() < 2 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(compute_threads(), 2);
    engine.assert_conserved();
    engine.shutdown();
    assert_eq!(compute_threads(), 0, "shutdown joins every worker");
}
