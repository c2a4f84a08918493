//! CI chaos smoke: the deterministic chaos harness driven end to end,
//! twice, on fresh fleets — the two runs must agree bit-for-bit.
//!
//! Usage: `cargo run --release -p af-bench --bin chaos_smoke --
//! [--out PATH]`
//!
//! One scripted campaign against a 3-shard × R=2 fleet:
//!
//! 1. **Sicken** shard 1 (100% admission shed) under traffic — requests
//!    fail over to the healthy replica while the sick shard's breaker
//!    accrues and opens.
//! 2. **Kill** shard 0 outright; health probes observe the corpse and
//!    open its circuit within `failure_threshold` probes.
//! 3. **Revive** shard 0 from its WAL; the warm-start must pass the
//!    bit-identity probe before its breaker force-closes, and traffic
//!    keeps flowing throughout.
//! 4. The harness epilogue heals everything and replays every golden
//!    request, asserting bit-identical answers after recovery.
//!
//! The whole campaign runs twice from the same seeds on fresh roots and
//! the two [`af_fleet::ChaosReport::determinism_key`]s must be equal:
//! same request outcomes, same breaker transition sequence, same final
//! fleet fingerprint. Writes a JSON verdict for `scripts/ci.sh`.

use std::sync::Arc;
use std::time::Duration;

use adaptivfloat::FormatKind;
use af_fleet::{
    ChaosEvent, ChaosHarness, ChaosReport, ChaosSchedule, FleetConfig, FleetRouter, HealthPolicy,
    HedgePolicy, ShardConfig,
};
use af_models::ModelFamily;
use af_serve::{EngineConfig, InjectedFault, VariantSpec};

const SHARDS: usize = 3;
const REPLICAS: usize = 2;
const MODELS: usize = 4;
const DIMS: [usize; 3] = [16, 32, 8];
const SEED: u64 = 0xC4A0_540C;
const FAILURE_THRESHOLD: u32 = 3;

fn run_once(tag: &str) -> ChaosReport {
    let root = std::env::temp_dir().join(format!("af-chaos-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let router = Arc::new(FleetRouter::new(
        &root,
        FleetConfig {
            replicas: REPLICAS,
            // Hedging and short backoffs both race wall time; chaos
            // determinism needs every transition to be event-driven.
            hedge: HedgePolicy {
                budget: Duration::ZERO,
                ..HedgePolicy::default()
            },
            health: HealthPolicy {
                failure_threshold: FAILURE_THRESHOLD,
                open_backoff: Duration::from_secs(30),
                max_backoff: Duration::from_secs(120),
            },
            ..FleetConfig::default()
        },
    ));
    let shard_cfg = ShardConfig {
        engine: EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    };
    for i in 0..SHARDS {
        router.join(i, shard_cfg).expect("join shard");
    }
    let mut models = Vec::with_capacity(MODELS);
    for k in 0..MODELS {
        let id = format!("chaos/adaptivfloat8-{k}");
        let spec = VariantSpec::quantized(
            &id,
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            SEED + k as u64,
            &DIMS,
        );
        router.register_model(&spec).expect("register model");
        models.push(id);
    }

    let mut harness = ChaosHarness::new(
        Arc::clone(&router),
        shard_cfg,
        models,
        DIMS[0],
        4,
        Duration::from_secs(2),
        SEED,
    );
    let schedule = ChaosSchedule::scripted(vec![
        ChaosEvent::Sicken {
            shard: 1,
            fault: InjectedFault::hard_failure(),
        },
        ChaosEvent::Traffic { requests: 24 },
        ChaosEvent::Heal { shard: 1 },
        ChaosEvent::Kill { shard: 0 },
        ChaosEvent::Probe { rounds: 3 },
        ChaosEvent::Traffic { requests: 16 },
        ChaosEvent::Revive { shard: 0 },
        ChaosEvent::Traffic { requests: 16 },
    ]);
    let report = harness.run(&schedule);
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    report
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let first = run_once("a");
    let second = run_once("b");
    let deterministic = first.determinism_key() == second.determinism_key();

    let json = format!(
        "{{\"bench\": \"chaos_smoke\", \"shards\": {SHARDS}, \"replicas\": {REPLICAS}, \
         \"models\": {MODELS}, \"failure_threshold\": {FAILURE_THRESHOLD}, \
         \"deterministic\": {deterministic}, \"report\": {}}}\n",
        first.json_object(),
    );
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write chaos smoke JSON");
    }

    assert!(
        deterministic,
        "same-seed chaos runs diverged:\n  a: {}\n  b: {}",
        first.determinism_key(),
        second.determinism_key()
    );
    assert_eq!(first.lost, 0, "replies were lost");
    assert_eq!(first.duplicated, 0, "replies were duplicated");
    assert_eq!(first.mismatched, 0, "a reply carried wrong bits");
    assert_eq!(first.sent, first.ok + first.failed, "reply accounting");
    assert!(
        first.stats.breaker_opens >= 2,
        "both the sick and the dead shard must trip"
    );
    assert!(
        first.stats.breaker_closes >= 1,
        "revive must close the dead shard's breaker"
    );
    assert_eq!(first.kills, 1, "exactly one kill was scripted");
    assert_eq!(
        first.revives + first.revive_rejected,
        1,
        "exactly one revive was scripted"
    );
    assert!(
        first.recovered_bit_identical,
        "post-chaos golden replay drifted"
    );
}
