//! Chaos availability sweep: the fleet's circuit breakers measured as
//! an availability mechanism, on vs off, under an identical seeded
//! fault schedule.
//!
//! The scenario (driven by `af_fleet::ChaosHarness`, so the zero-lost /
//! zero-duplicated / bit-identity invariants are checked for free):
//! R=1 placement puts every model's only on-ring replica on shard 0,
//! while shard 1 holds an operator-positioned off-ring copy. Shard 0
//! is then made to shed every admission
//! ([`af_serve::InjectedFault::hard_failure`]) under closed-loop
//! traffic, and later killed outright.
//!
//! * **Breakers off** ([`af_fleet::HealthPolicy::disabled`]): every
//!   request keeps being routed into the sick shard and fails —
//!   availability collapses for the whole sick phase.
//! * **Breakers on**: after `failure_threshold` counted failures the
//!   circuit opens, the sick shard leaves selection, and requests
//!   degrade to the off-ring holder — availability is bounded below by
//!   `1 − threshold/N`.
//!
//! Both arms run the *same* schedule from the same seeds; the only
//! difference is the health policy. The `fault_sweep` JSON document
//! carries the result as its `"chaos"` section and CI asserts
//! availability is strictly higher with breakers on, with zero lost or
//! duplicated replies in both arms.

use std::sync::Arc;
use std::time::Duration;

use adaptivfloat::FormatKind;
use af_fleet::{
    ChaosEvent, ChaosHarness, ChaosSchedule, FleetConfig, FleetRouter, HealthPolicy, HedgePolicy,
    ShardConfig,
};
use af_models::ModelFamily;
use af_serve::{EngineConfig, InjectedFault, ModelRegistry, VariantSpec};

use crate::render::TextTable;

/// Traffic seed shared by both arms.
pub const CHAOS_SEED: u64 = 0xC4A0_BEEF;
/// Breaker trip threshold in the breakers-on arm.
pub const FAILURE_THRESHOLD: u32 = 5;
/// Model input/hidden/output dims (small: the scenario measures
/// routing, not matmul throughput).
const DIMS: [usize; 3] = [12, 20, 6];
const MODELS: usize = 2;

/// One arm of the sweep: identical schedule, breakers on or off.
#[derive(Debug, Clone)]
pub struct ChaosArm {
    /// Whether the circuit breakers could trip.
    pub breakers: bool,
    /// Requests routed (sick phase + kill phase).
    pub sent: u64,
    /// Successful replies (all verified bit-identical to goldens).
    pub ok: u64,
    /// Failed replies.
    pub failed: u64,
    /// Requests that never returned (must be 0).
    pub lost: u64,
    /// Replies beyond one per request (must be 0).
    pub duplicated: u64,
    /// Successes that differed from the golden bits (must be 0).
    pub mismatched: u64,
    /// `ok / sent`.
    pub availability: f64,
    /// Median request latency, µs.
    pub p50_us: u64,
    /// 99th-percentile request latency, µs.
    pub p99_us: u64,
    /// Breaker trips during the run.
    pub breaker_opens: u64,
    /// Breaker recoveries (revive's bit-identity force-close included).
    pub breaker_closes: u64,
    /// Requests served off-ring behind an open circuit.
    pub degraded: u64,
    /// Whether the post-chaos golden replay was fully bit-identical.
    pub recovered_bit_identical: bool,
}

impl ChaosArm {
    /// Render as a JSON object.
    pub fn json_object(&self) -> String {
        format!(
            "{{\"breakers\":{},\"sent\":{},\"ok\":{},\"failed\":{},\"lost\":{},\
             \"duplicated\":{},\"mismatched\":{},\"availability\":{:.4},\"p50_us\":{},\
             \"p99_us\":{},\"breaker_opens\":{},\"breaker_closes\":{},\"degraded\":{},\
             \"recovered_bit_identical\":{}}}",
            self.breakers,
            self.sent,
            self.ok,
            self.failed,
            self.lost,
            self.duplicated,
            self.mismatched,
            self.availability,
            self.p50_us,
            self.p99_us,
            self.breaker_opens,
            self.breaker_closes,
            self.degraded,
            self.recovered_bit_identical,
        )
    }
}

/// Both arms plus the rendered table.
#[derive(Debug, Clone)]
pub struct ChaosBench {
    /// The two arms, breakers-on first.
    pub arms: Vec<ChaosArm>,
    /// Requests per arm.
    pub requests: u64,
    /// Rendered text table.
    pub rendered: String,
}

impl ChaosBench {
    /// The `"chaos"` JSON section of the fault-sweep document.
    pub fn json_object(&self) -> String {
        let arms: Vec<String> = self.arms.iter().map(ChaosArm::json_object).collect();
        format!(
            "{{\"scenario\": \"sick_primary_then_kill\", \"seed\": {}, \
             \"failure_threshold\": {}, \"requests_per_arm\": {}, \"arms\": [\n  {}\n ]}}",
            CHAOS_SEED,
            FAILURE_THRESHOLD,
            self.requests,
            arms.join(",\n  "),
        )
    }
}

/// Run the sweep: the same deterministic chaos schedule with breakers
/// on and off.
pub fn run(quick: bool) -> ChaosBench {
    let (sick, killed) = if quick { (120, 60) } else { (400, 200) };
    let arms = vec![run_arm(true, sick, killed), run_arm(false, sick, killed)];
    let mut table = TextTable::new(vec![
        "breakers", "sent", "ok", "failed", "avail", "p50 µs", "p99 µs", "opens", "closes",
        "degraded",
    ]);
    for a in &arms {
        table.row(vec![
            if a.breakers { "on" } else { "off" }.to_string(),
            a.sent.to_string(),
            a.ok.to_string(),
            a.failed.to_string(),
            format!("{:.4}", a.availability),
            a.p50_us.to_string(),
            a.p99_us.to_string(),
            a.breaker_opens.to_string(),
            a.breaker_closes.to_string(),
            a.degraded.to_string(),
        ]);
    }
    let rendered = format!(
        "Chaos availability (sick primary → kill → revive, {} requests/arm):\n{}",
        sick + killed,
        table.render()
    );
    ChaosBench {
        arms,
        requests: (sick + killed) as u64,
        rendered,
    }
}

fn run_arm(breakers: bool, sick: usize, killed: usize) -> ChaosArm {
    let root = std::env::temp_dir().join(format!(
        "af-bench-chaos-{}-{}",
        if breakers { "on" } else { "off" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let health = if breakers {
        HealthPolicy {
            failure_threshold: FAILURE_THRESHOLD,
            open_backoff: Duration::from_secs(60),
            max_backoff: Duration::from_secs(120),
        }
    } else {
        HealthPolicy::disabled()
    };
    let router = Arc::new(FleetRouter::new(
        &root,
        FleetConfig {
            replicas: 1,
            hedge: HedgePolicy {
                budget: Duration::ZERO,
                ..HedgePolicy::default()
            },
            health,
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
    router.join(0, shard_cfg).expect("join shard 0");
    router.join(1, shard_cfg).expect("join shard 1");

    // Models whose only on-ring replica (R=1) is the victim shard 0,
    // plus an operator-positioned off-ring copy on shard 1 — the
    // degradation target the breakers unlock.
    let mut models = Vec::new();
    let mut k = 0u64;
    while models.len() < MODELS {
        let id = format!("chaos/{k}");
        if router.placement(&id) == vec![0] {
            let spec = VariantSpec::quantized(
                &id,
                ModelFamily::ResNet,
                FormatKind::AdaptivFloat,
                8,
                500 + k,
                &DIMS,
            );
            router.register_model(&spec).expect("register model");
            let built = ModelRegistry::build(&spec).expect("off-ring build");
            router.shard(1).expect("shard 1 live").place(&built, None);
            models.push(id);
        }
        k += 1;
    }

    let mut harness = ChaosHarness::new(
        Arc::clone(&router),
        shard_cfg,
        models,
        DIMS[0],
        4,
        Duration::from_secs(2),
        CHAOS_SEED,
    );
    let schedule = ChaosSchedule::scripted(vec![
        ChaosEvent::Sicken {
            shard: 0,
            fault: InjectedFault::hard_failure(),
        },
        ChaosEvent::Traffic { requests: sick },
        ChaosEvent::Kill { shard: 0 },
        ChaosEvent::Traffic { requests: killed },
    ]);
    let report = harness.run(&schedule);
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    ChaosArm {
        breakers,
        sent: report.sent,
        ok: report.ok,
        failed: report.failed,
        lost: report.lost,
        duplicated: report.duplicated,
        mismatched: report.mismatched,
        availability: report.availability(),
        p50_us: report.latency_us(0.50),
        p99_us: report.latency_us(0.99),
        breaker_opens: report.stats.breaker_opens,
        breaker_closes: report.stats.breaker_closes,
        degraded: report.stats.degraded,
        recovered_bit_identical: report.recovered_bit_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared() -> &'static ChaosBench {
        static CELL: OnceLock<ChaosBench> = OnceLock::new();
        CELL.get_or_init(|| run(true))
    }

    #[test]
    fn breakers_strictly_improve_availability() {
        let bench = shared();
        let on = bench.arms.iter().find(|a| a.breakers).unwrap();
        let off = bench.arms.iter().find(|a| !a.breakers).unwrap();
        assert!(
            on.availability > off.availability,
            "breakers must buy availability: on {:.4} vs off {:.4}",
            on.availability,
            off.availability
        );
        assert!(on.breaker_opens >= 1, "the sick shard must trip");
        assert!(on.degraded > 0, "open circuit must unlock degradation");
        assert_eq!(off.breaker_opens, 0, "disabled breakers never trip");
    }

    #[test]
    fn no_arm_loses_duplicates_or_corrupts_replies() {
        for a in &shared().arms {
            let tag = if a.breakers { "on" } else { "off" };
            assert_eq!(a.lost, 0, "arm {tag} lost replies");
            assert_eq!(a.duplicated, 0, "arm {tag} duplicated replies");
            assert_eq!(a.mismatched, 0, "arm {tag} served wrong bits");
            assert!(a.recovered_bit_identical, "arm {tag} recovery drifted");
            assert_eq!(a.sent, a.ok + a.failed, "arm {tag} accounting");
        }
    }

    #[test]
    fn json_section_carries_both_arms() {
        let json = shared().json_object();
        assert!(json.contains("\"breakers\":true"));
        assert!(json.contains("\"breakers\":false"));
        assert!(json.contains("\"scenario\": \"sick_primary_then_kill\""));
    }
}
