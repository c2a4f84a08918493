//! CI fleet smoke: 3 shards × 2 replicas under closed-loop TCP traffic,
//! one replica killed mid-load, then warm-started back.
//!
//! Usage: `cargo run --release -p af-bench --bin fleet_smoke --
//! [--out PATH]`
//!
//! The run proves the fleet's two availability claims end to end:
//!
//! 1. **Zero failed client requests across the kill.** Every model has
//!    a second live replica, transient shard errors fail over, so the
//!    client herd never sees an error — each connection counts failures
//!    and the run asserts the sum is zero.
//! 2. **Bit-identical warm-start.** The killed shard is revived from
//!    its own checkpoint + WAL (no checkpoint was taken, so the replay
//!    path is exercised) and every variant it recovers must answer
//!    bit-for-bit what it answered before the kill.
//!
//! It also records `serve_threads`, the compute threads the process
//! runs under load, which the engine's fixed worker pool bounds by
//! `shards × compute_slots`.
//!
//! Writes a JSON verdict for `scripts/ci.sh` to assert on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivfloat::FormatKind;
use af_fleet::{FleetConfig, FleetRouter, FleetServer, ShardConfig};
use af_models::{FrozenMlp, ModelFamily};
use af_serve::{Client, EngineConfig, InjectedFault, VariantSpec};

const SHARDS: usize = 3;
const REPLICAS: usize = 2;
const MODELS: usize = 6;
const DIMS: [usize; 3] = [16, 32, 8];
const SEED: u64 = 0xF1EE_540C;
const THREADS: usize = 8;
const PER_THREAD: usize = 200;
/// Compute workers per shard engine.
const COMPUTE_SLOTS: usize = 1;
/// Modelled per-pass service time on every shard, paces the shards so
/// the kill lands genuinely mid-load.
const SERVICE_DELAY: Duration = Duration::from_millis(1);
/// Traffic runs ~this long before the kill lands.
const KILL_AFTER: Duration = Duration::from_millis(100);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let root = std::env::temp_dir().join(format!("af-fleet-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let router = Arc::new(FleetRouter::new(
        &root,
        FleetConfig {
            replicas: REPLICAS,
            ..FleetConfig::default()
        },
    ));
    let shard_cfg = ShardConfig {
        engine: EngineConfig {
            max_batch: 4,
            queue_cap: THREADS * 4,
            compute_slots: Some(COMPUTE_SLOTS),
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    };
    for i in 0..SHARDS {
        let shard = router.join(i, shard_cfg).expect("join shard");
        shard
            .engine()
            .inject_fault(Some(InjectedFault::slow(SERVICE_DELAY)));
    }
    for k in 0..MODELS {
        let spec = VariantSpec::quantized(
            &format!("smoke/adaptivfloat8-{k}"),
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            SEED + k as u64,
            &DIMS,
        );
        router.register_model(&spec).expect("register model");
    }

    // With R=2 on 3 shards, killing any one shard leaves every model a
    // live replica; take down shard 0.
    let victim = 0usize;
    let probe = FrozenMlp::synth_inputs(7, 1, DIMS[0]).row(0).to_vec();
    let before: Vec<(String, Vec<u32>)> = {
        let shard = router.shard(victim).expect("victim live");
        shard
            .ids()
            .into_iter()
            .map(|id| {
                let v = shard.engine().registry().get(&id).expect("victim variant");
                let bits = v
                    .model
                    .evaluate(&probe)
                    .iter()
                    .map(|f| f.to_bits())
                    .collect();
                (id, bits)
            })
            .collect()
    };
    assert!(!before.is_empty(), "victim shard must carry models");

    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).expect("bind fleet server");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = server.addr();
            let id = format!("smoke/adaptivfloat8-{}", t % MODELS);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect smoke client");
                let inputs = FrozenMlp::synth_inputs(9000 + t as u64, 8, DIMS[0]);
                let mut failed = 0u64;
                for r in 0..PER_THREAD {
                    if client.infer(&id, inputs.row(r % inputs.rows())).is_err() {
                        failed += 1;
                    }
                }
                failed
            })
        })
        .collect();

    std::thread::sleep(KILL_AFTER);
    // Every engine spawns its workers at start, so one reading under
    // load is the peak.
    let serve_threads = compute_threads();
    let at_kill = router.stats().snapshot();
    assert!(router.kill(victim), "victim was live");
    let failed: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("smoke connection panicked"))
        .sum();
    let wall = t0.elapsed().as_secs_f64();
    let snap = router.stats().snapshot();
    let served_during_kill = snap.completed - at_kill.completed;

    // Warm-start the victim and compare bits against its pre-kill self.
    let shard = router.revive(victim, shard_cfg).expect("revive victim");
    let report = shard.report();
    let mut bit_identical = true;
    for (id, want) in &before {
        let v = shard
            .engine()
            .registry()
            .get(id)
            .unwrap_or_else(|| panic!("{id} not recovered on revive"));
        let got: Vec<u32> = v
            .model
            .evaluate(&probe)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        if got != *want {
            bit_identical = false;
        }
    }

    server.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    let json = format!(
        "{{\"bench\": \"fleet_smoke\", \"shards\": {SHARDS}, \"replicas\": {REPLICAS}, \
         \"models\": {MODELS}, \"compute_slots\": {COMPUTE_SLOTS}, \
         \"serve_threads\": {serve_threads}, \"requests\": {}, \"completed\": {}, \
         \"failed\": {failed}, \
         \"router_failed\": {}, \"failovers\": {}, \"hedges\": {}, \
         \"served_during_kill\": {served_during_kill}, \"killed_shard\": {victim}, \
         \"recovered_variants\": {}, \"wal_records_replayed\": {}, \
         \"bit_identical\": {bit_identical}, \"throughput_rps\": {:.1}}}\n",
        snap.requests,
        snap.completed,
        snap.failed,
        snap.failovers,
        snap.hedges,
        report.recovered_variants,
        report.wal_records_replayed,
        snap.completed as f64 / wall.max(1e-9),
    );
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write smoke JSON");
    }

    assert_eq!(failed, 0, "client requests failed across the kill");
    assert!(bit_identical, "revived shard served different bits");
    assert!(served_during_kill > 0, "kill did not land mid-load");
    assert!(report.wal_records_replayed > 0, "revive skipped the WAL");
}

/// This process's engine compute threads: threads named `af-serve:…`
/// other than the reactor and the scrubber (`comm` keeps at most 15
/// bytes, so `af-serve:reactor` reads as `af-serve:reacto`).
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
