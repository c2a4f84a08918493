//! Fleet end to end: the acceptance surface of the sharded serving
//! tier.
//!
//! 1. **Deterministic routing** — placement is a pure function of
//!    (ring seed, membership, model id): stable across calls and
//!    identical between independent routers sharing a seed.
//! 2. **Straggler hedging** — a replica with a large injected service
//!    delay is hedged around: p99 stays far below the straggler's
//!    latency, hedge attempts launch and win, answers stay
//!    bit-identical.
//! 3. **Kill + warm-start** — a replica killed mid-traffic causes zero
//!    failed client requests (failover covers it), and its revival
//!    warm-starts from its own checkpoint + WAL to bit-identical
//!    serving with generations intact.
//! 4. **Hedging determinism** — two fleets sharing every seed make
//!    identical hedge decisions on identical request streams and
//!    return bit-identical bytes.
//! 5. **Fleet operations** — register/hot-swap fan-out with per-shard
//!    generations, scrub fan-out, rebalancing on join/leave, and the
//!    HTTP front end speaking the single-node wire protocol.
//! 6. **HTTP parity** — hedging and lane-panic failover behave the same
//!    when the reactor drives routing, `/stats` conserves
//!    `requests == completed + failed`, and a hedge loser's late reply
//!    never answers a later pipelined request on its connection.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivfloat::FormatKind;
use af_fleet::{
    BreakerState, ChaosEvent, ChaosHarness, ChaosSchedule, FleetConfig, FleetRouter, FleetServer,
    HealthPolicy, HedgePolicy, Shard, ShardConfig,
};
use af_models::{FrozenMlp, ModelFamily};
use af_serve::{EngineConfig, InjectedFault, ModelRegistry, ServeError, VariantSpec};

const IN_DIM: usize = 12;
const DIMS: [usize; 3] = [IN_DIM, 20, 6];

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("af-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn spec(id: &str, seed: u64) -> VariantSpec {
    VariantSpec::quantized(
        id,
        ModelFamily::ResNet,
        FormatKind::AdaptivFloat,
        8,
        seed,
        &DIMS,
    )
}

fn quick_engine() -> EngineConfig {
    EngineConfig {
        max_batch: 8,
        ..EngineConfig::default()
    }
}

fn shard_cfg(engine: EngineConfig) -> ShardConfig {
    ShardConfig {
        engine,
        ..ShardConfig::default()
    }
}

/// A fleet of `n` identical shards routed by `cfg`.
fn fleet_with(root: &Path, n: usize, cfg: FleetConfig) -> Arc<FleetRouter> {
    let router = Arc::new(FleetRouter::new(root, cfg));
    for i in 0..n {
        router
            .join(i, shard_cfg(quick_engine()))
            .expect("join shard");
    }
    router
}

/// A fleet of `n` identical shards, R=2, hedging configured by `hedge`.
fn fleet(root: &Path, n: usize, hedge: HedgePolicy) -> Arc<FleetRouter> {
    let cfg = FleetConfig {
        replicas: 2,
        hedge,
        ..FleetConfig::default()
    };
    fleet_with(root, n, cfg)
}

/// The deterministic-test routing policy: `replicas` per model, no
/// hedging, and [`test_health`]'s time-independent breakers.
fn strict(replicas: usize) -> FleetConfig {
    FleetConfig {
        replicas,
        hedge: no_hedge(),
        health: test_health(),
        ..FleetConfig::default()
    }
}

/// Install `fault` on live shard `index`'s engine.
fn sicken(router: &FleetRouter, index: usize, fault: InjectedFault) {
    let shard = router.shard(index).expect("live shard");
    shard.engine().inject_fault(Some(fault));
}

/// A fault that panics an evaluate pass on inputs led by `trigger`.
fn panic_on(trigger: f32) -> InjectedFault {
    InjectedFault {
        panic_on: Some(trigger),
        ..InjectedFault::default()
    }
}

/// Direct evaluation of `id` on live shard `index`, as bits.
fn direct(router: &FleetRouter, index: usize, id: &str, input: &[f32]) -> Vec<u32> {
    let variant = router.shard(index).unwrap().engine().registry().get(id);
    bits(&variant.expect("variant placed").model.evaluate(input))
}

/// End a test: every live shard's engine balances its counters, then
/// the fleet shuts down and its root is removed.
fn finish(router: &FleetRouter, root: &Path) {
    for index in router.live_shards() {
        let shard = router.shard(index).expect("live shard");
        shard.engine().assert_conserved();
    }
    router.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

fn probe_input(seed: u64) -> Vec<f32> {
    FrozenMlp::synth_inputs(seed, 1, IN_DIM).row(0).to_vec()
}

/// A model id whose ring primary is `shard` (and whose secondary is
/// not), found by scanning a deterministic id sequence.
fn model_with_primary(router: &FleetRouter, shard: usize, tag: &str) -> String {
    for k in 0..10_000 {
        let id = format!("{tag}/{k}");
        let placement = router.placement(&id);
        if placement.first() == Some(&shard) && placement.get(1) != Some(&shard) {
            return id;
        }
    }
    panic!("no model id found with primary {shard}");
}

#[test]
fn routing_is_deterministic_per_model_id() {
    let root_a = tmp_root("route-a");
    let root_b = tmp_root("route-b");
    let a = fleet(&root_a, 4, HedgePolicy::default());
    let b = fleet(&root_b, 4, HedgePolicy::default());
    for k in 0..64 {
        let id = format!("m/{k}");
        let pa = a.placement(&id);
        assert_eq!(pa, a.placement(&id), "placement must be stable");
        assert_eq!(pa, b.placement(&id), "routers sharing a seed must agree");
        assert_eq!(pa.len(), 2, "R=2 gives two replicas");
        assert_ne!(pa[0], pa[1], "replicas are distinct shards");
    }
    // And the request path uses it: a registered model lands on exactly
    // its replica set.
    let placement = a.register_model(&spec("m/7", 77)).unwrap();
    assert_eq!(placement, a.placement("m/7"));
    for i in a.live_shards() {
        let has = a.shard(i).unwrap().ids().contains(&"m/7".to_string());
        assert_eq!(has, placement.contains(&i), "shard {i}");
    }
    finish(&a, &root_a);
    finish(&b, &root_b);
}

#[test]
fn straggler_is_hedged_around_with_p99_below_its_latency() {
    let root = tmp_root("straggle");
    let straggle = Duration::from_millis(300);
    let hedge = HedgePolicy {
        budget: Duration::from_millis(40),
        jitter_seed: 0xFEED,
    };
    let router = fleet(&root, 3, hedge);
    // Shard 0 is the straggler: every evaluate pass takes `straggle`.
    sicken(&router, 0, InjectedFault::slow(straggle));
    let id = model_with_primary(&router, 0, "straggled");
    router.register_model(&spec(&id, 42)).unwrap();
    let input = probe_input(5);
    let reference = direct(&router, router.placement(&id)[1], &id, &input);

    let mut latencies = Vec::new();
    let rounds = 15;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let out = router.infer(&id, input.clone()).expect("hedged infer");
        latencies.push(t0.elapsed());
        assert_eq!(bits(&out), reference, "hedged answers stay bit-identical");
        // Let the straggler drain its (losing) copy so the next round
        // sees it idle again — selection then keeps it primary and the
        // hedge path, not the load signal, is what's exercised.
        std::thread::sleep(straggle + Duration::from_millis(20));
    }
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 < straggle / 2,
        "p99 {p99:?} should sit far below the {straggle:?} straggler"
    );
    let snap = router.stats().snapshot();
    assert!(
        snap.hedges >= rounds as u64 - 1,
        "nearly every round should hedge: {snap:?}"
    );
    assert!(snap.hedge_wins >= 1, "hedges must win: {snap:?}");
    assert_eq!(snap.failed, 0);
    finish(&router, &root);
}

#[test]
fn killed_replica_causes_no_failures_and_warm_starts_bit_identical() {
    let root = tmp_root("kill");
    let router = fleet(&root, 3, HedgePolicy::default());
    let ids: Vec<String> = (0..6).map(|k| format!("kill/{k}")).collect();
    for (k, id) in ids.iter().enumerate() {
        router.register_model(&spec(id, 100 + k as u64)).unwrap();
    }
    let input = probe_input(9);
    let reference: Vec<(String, Vec<u32>)> = ids
        .iter()
        .map(|id| (id.clone(), bits(&router.infer(id, input.clone()).unwrap())))
        .collect();

    // The victim: primary of at least one model, so its death actually
    // exercises failover.
    let victim = router.placement(&ids[0])[0];
    let victim_models: Vec<String> = router.shard(victim).unwrap().ids();
    assert!(!victim_models.is_empty());
    let pre_kill_gens: Vec<(String, u64)> = victim_models
        .iter()
        .map(|id| {
            let v = router
                .shard(victim)
                .unwrap()
                .engine()
                .registry()
                .get(id)
                .unwrap();
            (id.clone(), v.generation)
        })
        .collect();

    // Traffic across every model while the victim dies mid-stream.
    let workers: Vec<_> = (0..4u64)
        .map(|w| {
            let router = Arc::clone(&router);
            let ids = ids.clone();
            let input = input.clone();
            std::thread::spawn(move || {
                let mut failures = 0usize;
                for r in 0..60 {
                    let id = &ids[(w as usize + r) % ids.len()];
                    if router.infer(id, input.clone()).is_err() {
                        failures += 1;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                failures
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(25));
    assert!(router.kill(victim), "victim was live");
    let failures: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(failures, 0, "failover must hide the killed replica");

    // Every answer still matches the pre-kill reference.
    for (id, want) in &reference {
        assert_eq!(&bits(&router.infer(id, input.clone()).unwrap()), want);
    }

    // Warm-start: the revived shard replays its own WAL and serves the
    // same bits at the same generations, with zero requantization (the
    // durable layer's invariant — pinned bitwise here).
    let revived = router.revive(victim, shard_cfg(quick_engine())).unwrap();
    let report = revived.report();
    assert_eq!(report.recovered_variants, victim_models.len());
    assert!(
        report.wal_records_replayed > 0,
        "recovery must fold the WAL"
    );
    for (id, gen_before) in &pre_kill_gens {
        let v = revived.engine().registry().get(id).expect("recovered");
        assert_eq!(v.generation, *gen_before, "{id} generation survives");
        let want = &reference.iter().find(|(i, _)| i == id).unwrap().1;
        assert_eq!(
            &bits(&v.model.evaluate(&input)),
            want,
            "{id} must serve bit-identical weights after warm-start"
        );
        // The revived replica also answers through the router.
        assert_eq!(&bits(&router.infer(id, input.clone()).unwrap()), want);
    }
    finish(&router, &root);
}

#[test]
fn hedge_decisions_are_deterministic_under_shared_seeds() {
    let hedge = HedgePolicy {
        budget: Duration::from_millis(60),
        jitter_seed: 0xD00D,
    };
    // The jittered budget is a pure function of (seed, seq).
    let again = HedgePolicy {
        budget: Duration::from_millis(60),
        jitter_seed: 0xD00D,
    };
    for seq in 0..256 {
        assert_eq!(hedge.budget_for(seq), again.budget_for(seq));
        assert!(hedge.budget_for(seq) >= hedge.budget / 2);
        assert!(hedge.budget_for(seq) < hedge.budget);
    }
    assert_ne!(
        (0..64).map(|s| hedge.budget_for(s)).collect::<Vec<_>>(),
        vec![hedge.budget_for(0); 64],
        "jitter must actually vary across the sequence"
    );

    // Two fleets sharing every seed, fed the identical sequential
    // stream: identical hedge decisions, bit-identical responses. The
    // straggler shard forces hedges deterministically (300ms delay vs a
    // <=60ms budget); the fast path never hedges (µs eval vs >=30ms).
    let mk = |tag: &str| {
        let root = tmp_root(tag);
        let router = fleet(&root, 3, hedge);
        sicken(&router, 0, InjectedFault::slow(Duration::from_millis(300)));
        (root, router)
    };
    let (root_a, a) = mk("det-a");
    let (root_b, b) = mk("det-b");
    let slow = model_with_primary(&a, 0, "det-slow");
    let fast = model_with_primary(&a, 1, "det-fast");
    assert_eq!(a.placement(&slow), b.placement(&slow), "placement agrees");
    for id in [&slow, &fast] {
        a.register_model(&spec(id, 7)).unwrap();
        b.register_model(&spec(id, 7)).unwrap();
    }
    let input = probe_input(3);
    for r in 0..6 {
        let id = if r % 2 == 0 { &fast } else { &slow };
        let out_a = a.infer(id, input.clone()).unwrap();
        let out_b = b.infer(id, input.clone()).unwrap();
        assert_eq!(bits(&out_a), bits(&out_b), "round {r} bit-identical");
        if id == &slow {
            // Drain the stragglers' losing copies before the next round.
            std::thread::sleep(Duration::from_millis(320));
        }
    }
    let (sa, sb) = (a.stats().snapshot(), b.stats().snapshot());
    assert_eq!(sa.hedges, sb.hedges, "identical hedge decisions");
    assert_eq!(sa.hedges, 3, "exactly the slow rounds hedge: {sa:?}");
    assert_eq!((sa.failed, sb.failed), (0, 0));
    finish(&a, &root_a);
    finish(&b, &root_b);
}

#[test]
fn fleet_ops_fan_out_and_rebalance_minimally() {
    let root = tmp_root("ops");
    let router = fleet(&root, 3, HedgePolicy::default());
    let ids: Vec<String> = (0..8).map(|k| format!("ops/{k}")).collect();
    for (k, id) in ids.iter().enumerate() {
        router.register_model(&spec(id, k as u64)).unwrap();
    }

    // Hot swap fans out: every replica bumps its own generation.
    let target = &ids[3];
    let before = router.generations(target);
    assert_eq!(before.len(), 2, "R=2 live replicas carry the model");
    router.register_model(&spec(target, 999)).unwrap();
    let after = router.generations(target);
    for ((shard, g0), (shard2, g1)) in before.iter().zip(&after) {
        assert_eq!(shard, shard2);
        assert_eq!(*g1, g0 + 1, "shard {shard} generation bumps on swap");
    }

    // Scrub fan-out covers protected variants on every shard.
    let prot = "ops/protected";
    router.register_model(&spec(prot, 31).protected()).unwrap();
    let summary = router.scrub_all();
    assert_eq!(
        summary.variants, 2,
        "one protected variant × R=2 replicas scrubbed"
    );

    // Join: only ring-moved models land on the newcomer, and every
    // model still sits exactly on its (new) replica set.
    let placed_before: Vec<(String, Vec<usize>)> = ids
        .iter()
        .map(|id| (id.clone(), router.placement(id)))
        .collect();
    router.join(3, shard_cfg(quick_engine())).unwrap();
    for (id, old) in &placed_before {
        let new = router.placement(id);
        for s in &new {
            assert!(
                router.shard(*s).unwrap().ids().contains(id),
                "{id} missing on shard {s}"
            );
        }
        if !new.contains(&3) {
            assert_eq!(&new, old, "{id} must not move unless shard 3 took it");
        }
        assert!(
            !router.shard(3).unwrap().ids().contains(id) || new.contains(&3),
            "{id} on the newcomer only if placed there"
        );
    }

    // Unregister removes the model everywhere.
    assert!(router.unregister_model(target));
    assert!(!router.unregister_model(target), "second remove is a no-op");
    for i in router.live_shards() {
        assert!(!router.shard(i).unwrap().ids().contains(target));
    }
    assert!(matches!(
        router.infer(target, probe_input(1)),
        Err(ServeError::UnknownModel(_))
    ));

    // Leave: the departed shard's models re-place onto survivors.
    assert!(router.leave(3));
    assert!(!router.leave(3));
    for id in router.model_ids() {
        for s in router.placement(&id) {
            assert!(router.shard(s).unwrap().ids().contains(&id));
        }
    }
    finish(&router, &root);
}

#[test]
fn fleet_http_front_end_speaks_the_single_node_protocol() {
    let root = tmp_root("http");
    let router = fleet(&root, 3, HedgePolicy::default());
    router.register_model(&spec("http/m", 11)).unwrap();
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut client = af_serve::Client::connect(server.addr()).unwrap();
    assert!(client.healthz().unwrap());
    let stats = client.stats_json().unwrap();
    for key in [
        "\"hedges\":",
        "\"ring_members\":",
        "\"live_shards\":",
        "\"shards\":[",
        "\"load\":",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    let input = probe_input(2);
    let served = client.infer("http/m", &input).unwrap();
    let primary = router.placement("http/m")[0];
    assert_eq!(bits(&served), direct(&router, primary, "http/m", &input));
    let err = client.infer("http/ghost", &input).unwrap_err();
    assert!(matches!(
        err,
        af_serve::ClientError::Http { status: 404, .. }
    ));
    server.shutdown();
    finish(&router, &root);
}

/// The first `"key":<integer>` of a stats document — the fleet-level
/// counters lead it, ahead of the per-shard sections.
fn stat(doc: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let at = doc
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {doc}"))
        + pattern.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("integer counter")
}

/// Read `GET /stats` and check conservation: every request the router
/// saw was answered exactly once, as completed or failed.
fn conserved_stats(client: &mut af_serve::Client) -> String {
    let doc = client.stats_json().unwrap();
    assert_eq!(
        stat(&doc, "requests"),
        stat(&doc, "completed") + stat(&doc, "failed"),
        "requests must equal completed + failed: {doc}"
    );
    doc
}

#[test]
fn http_straggler_is_hedged_around_bit_identically() {
    // `straggler_is_hedged_around_with_p99_below_its_latency`, driven
    // through the HTTP front end: the reactor's timer wheel launches the
    // hedge instead of an in-process `recv_timeout`.
    let root = tmp_root("http-straggle");
    let straggle = Duration::from_millis(300);
    let hedge = HedgePolicy {
        budget: Duration::from_millis(40),
        jitter_seed: 0xFEED,
    };
    let router = fleet(&root, 3, hedge);
    sicken(&router, 0, InjectedFault::slow(straggle));
    let id = model_with_primary(&router, 0, "http-straggled");
    router.register_model(&spec(&id, 42)).unwrap();
    let input = probe_input(5);
    let reference = direct(&router, router.placement(&id)[1], &id, &input);
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut client = af_serve::Client::connect(server.addr()).unwrap();

    let mut latencies = Vec::new();
    let rounds = 15;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let out = client.infer(&id, &input).expect("hedged infer over HTTP");
        latencies.push(t0.elapsed());
        assert_eq!(bits(&out), reference, "hedged answers stay bit-identical");
        std::thread::sleep(straggle + Duration::from_millis(20));
    }
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 < straggle / 2,
        "p99 {p99:?} should sit far below the {straggle:?} straggler"
    );
    let doc = conserved_stats(&mut client);
    assert!(stat(&doc, "hedges") > 0, "hedges must launch: {doc}");
    assert!(stat(&doc, "hedge_wins") > 0, "hedges must win: {doc}");
    assert_eq!(stat(&doc, "failed"), 0, "{doc}");
    server.shutdown();
    finish(&router, &root);
}

#[test]
fn http_lane_panic_on_the_primary_fails_over_to_the_reference_bits() {
    let root = tmp_root("http-panic");
    let trigger = 7.75f32;
    let router = fleet_with(&root, 3, strict(2));
    sicken(&router, 0, panic_on(trigger));
    let id = model_with_primary(&router, 0, "http-panic");
    router.register_model(&spec(&id, 77)).unwrap();
    let mut poisoned = probe_input(8);
    poisoned[0] = trigger;
    let reference = direct(&router, router.placement(&id)[1], &id, &poisoned);
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut client = af_serve::Client::connect(server.addr()).unwrap();
    let out = client
        .infer(&id, &poisoned)
        .expect("the secondary answers after the primary's lane panics");
    assert_eq!(bits(&out), reference);
    let doc = conserved_stats(&mut client);
    assert_eq!(stat(&doc, "failovers"), 1, "{doc}");
    assert_eq!(stat(&doc, "failed"), 0, "{doc}");
    assert_eq!(router.health().snapshot(0).failures, 1);
    server.shutdown();
    finish(&router, &root);
}

#[test]
fn pipelined_replies_never_answer_the_wrong_request() {
    // One keep-alive connection, many distinct pipelined inputs, and a
    // straggling primary: every early request hedges, and the
    // straggler's losing reply lands while the connection is already
    // waiting on a later request. Reply tags name the request, not just
    // the connection, so each response must carry its own input's bits.
    let root = tmp_root("http-stale");
    let hedge = HedgePolicy {
        budget: Duration::from_millis(2),
        jitter_seed: 0x57A1E,
    };
    let router = fleet(&root, 3, hedge);
    for (i, delay) in [(0, 30), (1, 2), (2, 2)] {
        sicken(
            &router,
            i,
            InjectedFault::slow(Duration::from_millis(delay)),
        );
    }
    let id = model_with_primary(&router, 0, "http-stale");
    router.register_model(&spec(&id, 31)).unwrap();
    let n = 48;
    let inputs = FrozenMlp::synth_inputs(99, n, IN_DIM);
    let variant = router
        .shard(router.placement(&id)[1])
        .unwrap()
        .engine()
        .registry()
        .get(&id)
        .unwrap();
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();

    let mut wire = Vec::new();
    for r in 0..n {
        let body = af_serve::http::encode_f32_body(inputs.row(r));
        wire.extend_from_slice(
            format!(
                "POST /v1/infer/{id} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(&body);
    }
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::io::Write::write_all(&mut stream, &wire).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    for r in 0..n {
        let response = af_serve::http::read_response(&mut reader).expect("pipelined response");
        assert_eq!(response.status, 200, "request {r}");
        let served = af_serve::http::decode_f32_body(&response.body).expect("f32 body");
        assert_eq!(
            bits(&served),
            bits(&variant.model.evaluate(inputs.row(r))),
            "response {r} must answer its own input"
        );
    }
    let mut client = af_serve::Client::connect(server.addr()).unwrap();
    let doc = conserved_stats(&mut client);
    assert!(
        stat(&doc, "hedges") > 0,
        "the straggler must be hedged: {doc}"
    );
    server.shutdown();
    finish(&router, &root);
}

/// A time-independent breaker policy for deterministic tests: trips
/// after 3 counted failures and stays open far longer than any test
/// runs, so the only closes are explicit (revive's bit-identity probe).
fn test_health() -> HealthPolicy {
    HealthPolicy {
        failure_threshold: 3,
        open_backoff: Duration::from_secs(30),
        max_backoff: Duration::from_secs(120),
    }
}

fn no_hedge() -> HedgePolicy {
    HedgePolicy {
        budget: Duration::ZERO,
        ..HedgePolicy::default()
    }
}

#[test]
fn exhausted_replicas_surface_the_last_error_exactly_once() {
    // Replica A sheds at admission (Overloaded), replica B accepts and
    // then loses the batch to a worker panic (Internal). The caller
    // must see the *last* error — B's Internal, not A's Overloaded —
    // exactly once, and the router must stay fully serviceable
    // afterwards (no leaked tagged channel, no wedged lane).
    let root = tmp_root("last-err");
    let trigger = 9.25f32;
    let cfg = FleetConfig {
        replicas: 2,
        health: test_health(),
        ..FleetConfig::default()
    };
    let router = fleet_with(&root, 2, cfg);
    sicken(&router, 1, panic_on(trigger));
    let id = model_with_primary(&router, 0, "last-err");
    router.register_model(&spec(&id, 55)).unwrap();
    sicken(&router, 0, InjectedFault::hard_failure());

    let mut poisoned = probe_input(6);
    poisoned[0] = trigger;
    let before = router.stats().snapshot();
    let err = router.infer(&id, poisoned).unwrap_err();
    assert!(
        matches!(err, ServeError::Internal),
        "caller must see the last replica's error, got {err}"
    );
    let snap = router.stats().snapshot();
    assert_eq!(snap.requests - before.requests, 1);
    assert_eq!(snap.failed - before.failed, 1, "exactly one reply");
    assert_eq!(snap.completed, before.completed);
    assert_eq!(snap.failovers - before.failovers, 1, "A failed over to B");
    // Both failures fed the health table.
    assert_eq!(router.health().snapshot(0).failures, 1);
    assert_eq!(router.health().snapshot(1).failures, 1);

    // The router survives the double fault: heal A, send a clean
    // request (B's worker caught its panic and serves on).
    router.shard(0).unwrap().engine().inject_fault(None);
    let out = router.infer(&id, probe_input(6)).expect("router recovered");
    assert_eq!(out.len(), DIMS[2]);
    finish(&router, &root);
}

#[test]
fn breaker_opens_then_degrades_off_ring_then_unavailable_with_retry_hint() {
    // R=1 so the sick primary has no on-ring failover target: the
    // breaker must open after exactly `failure_threshold` failures,
    // after which the model is served from an off-ring holder if one
    // exists, else 503 Unavailable with the breaker's half-open ETA.
    let root = tmp_root("breaker");
    let router = fleet_with(&root, 2, strict(1));
    let id = model_with_primary(&router, 0, "breaker");
    let model_spec = spec(&id, 77);
    router.register_model(&model_spec).unwrap();
    let input = probe_input(8);
    let reference = bits(&router.infer(&id, input.clone()).unwrap());

    sicken(&router, 0, InjectedFault::hard_failure());
    for i in 0..3 {
        let err = router.infer(&id, input.clone()).unwrap_err();
        assert!(
            matches!(err, ServeError::Overloaded),
            "failure {i} shed at admission, got {err}"
        );
    }
    assert_eq!(router.health().state(0), BreakerState::Open);
    assert_eq!(router.stats().snapshot().breaker_opens, 1);

    // Quarantined and no other holder anywhere: 503 with a retry hint
    // derived from the breaker's half-open ETA.
    let err = router.infer(&id, input.clone()).unwrap_err();
    match &err {
        ServeError::Unavailable { retry_after_ms } => {
            assert!(
                *retry_after_ms > 0 && *retry_after_ms <= 45_000,
                "retry hint should reflect the 30s-ish cooldown, got {retry_after_ms}ms"
            );
        }
        other => panic!("expected Unavailable, got {other}"),
    }
    assert_eq!(err.http_status(), 503);
    assert!(err.retry_after_secs().unwrap_or(0) >= 1);
    assert_eq!(router.stats().snapshot().unavailable, 1);

    // An operator pre-positions the variant on the off-ring shard 1:
    // degraded serving takes over, bit-identical.
    let built = ModelRegistry::build(&model_spec).unwrap();
    router.shard(1).unwrap().place(&built, None);
    let out = router.infer(&id, input.clone()).expect("degraded serve");
    assert_eq!(bits(&out), reference, "degraded answers stay bit-identical");
    assert!(router.stats().snapshot().degraded >= 1);
    // The sick shard never saw the degraded request (breaker held).
    assert!(router.stats().snapshot().breaker_rejections >= 1);
    // Health state is visible in the stats document.
    let json = router.stats_json();
    assert!(json.contains("\"health\":{\"state\":\"open\""), "{json}");
    assert!(json.contains("\"breaker_opens\":1"), "{json}");
    finish(&router, &root);
}

#[test]
fn dead_member_probes_open_the_breaker_and_revive_closes_it_bit_identically() {
    let root = tmp_root("revive-probe");
    let router = fleet_with(&root, 3, strict(2));
    let ids: Vec<String> = (0..4).map(|k| format!("revive/{k}")).collect();
    for (k, id) in ids.iter().enumerate() {
        router.register_model(&spec(id, 200 + k as u64)).unwrap();
    }
    let input = probe_input(11);
    let reference: Vec<Vec<u32>> = ids
        .iter()
        .map(|id| bits(&router.infer(id, input.clone()).unwrap()))
        .collect();

    let victim = router.placement(&ids[0])[0];
    assert!(router.kill(victim));
    // The in-process healthz sweep finds the dead member; after the
    // failure threshold its circuit opens.
    for round in 0..3 {
        let probes = router.probe_health();
        assert!(
            probes.contains(&(victim, false)),
            "round {round} must see the dead member"
        );
    }
    assert_eq!(router.health().state(victim), BreakerState::Open);
    let mid = router.stats().snapshot();
    assert_eq!(mid.breaker_opens, 1);

    // Revive: WAL warm-start, then the bit-identity probe against a
    // surviving replica gates the force-close.
    let revived = router.revive(victim, shard_cfg(quick_engine())).unwrap();
    assert!(revived.report().wal_records_replayed > 0);
    assert_eq!(router.health().state(victim), BreakerState::Closed);
    assert!(router.stats().snapshot().breaker_closes >= 1);
    for (id, want) in ids.iter().zip(&reference) {
        assert_eq!(&bits(&router.infer(id, input.clone()).unwrap()), want);
    }
    finish(&router, &root);
}

#[test]
fn unlaunched_candidates_never_consume_the_half_open_probe_token() {
    // Regression: the router used to admit *every* selected replica up
    // front, so a recovering (open, cooldown-elapsed) shard sitting at
    // candidate index 1 had its single half-open probe token consumed
    // by requests that were served entirely by the primary — no outcome
    // was ever recorded for it, wedging it half-open forever. The
    // breaker must only be consulted for candidates the request
    // actually launches on.
    let root = tmp_root("probe-token");
    let health = HealthPolicy {
        open_backoff: Duration::from_millis(50),
        max_backoff: Duration::from_millis(200),
        ..test_health()
    };
    let router = fleet_with(
        &root,
        2,
        FleetConfig {
            health,
            ..strict(2)
        },
    );
    let id = model_with_primary(&router, 0, "probe-token");
    router.register_model(&spec(&id, 88)).unwrap();
    let input = probe_input(13);
    let reference = bits(&router.infer(&id, input.clone()).unwrap());

    // Trip shard 1's breaker via dead-member probes, then bring it back
    // through plain join (which, unlike revive, leaves the breaker as
    // it was) and let the cooldown elapse.
    assert!(router.kill(1));
    for _ in 0..3 {
        let _ = router.probe_health();
    }
    assert_eq!(router.health().state(1), BreakerState::Open);
    router.join(1, shard_cfg(quick_engine())).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Requests served entirely by the healthy primary must not touch
    // the recovering shard's breaker: no half-open transition, no
    // probe token consumed.
    for _ in 0..5 {
        let out = router.infer(&id, input.clone()).expect("primary serves");
        assert_eq!(bits(&out), reference);
    }
    assert_eq!(
        router.health().state(1),
        BreakerState::Open,
        "an unlaunched candidate must not transition"
    );
    assert_eq!(router.stats().snapshot().breaker_half_opens, 0);

    // Once traffic actually needs shard 1, its probe admits, succeeds,
    // and closes the breaker — it was never wedged.
    assert!(router.kill(0));
    let out = router.infer(&id, input.clone()).expect("probe serves");
    assert_eq!(bits(&out), reference);
    assert_eq!(router.health().state(1), BreakerState::Closed);
    let snap = router.stats().snapshot();
    assert_eq!(snap.breaker_half_opens, 1);
    assert!(snap.breaker_closes >= 1);
    finish(&router, &root);
}

#[test]
fn chaos_runs_are_deterministic_and_lose_nothing() {
    // Two fresh fleets sharing every seed, driven through the same
    // seeded schedule: identical outcomes, identical breaker transition
    // sequences, identical final fingerprints — and in both, zero lost
    // or duplicated replies and bit-identical recovery.
    let mk = |tag: &str| {
        let root = tmp_root(tag);
        let router = fleet_with(&root, 3, strict(2));
        let models: Vec<String> = (0..3).map(|k| format!("chaos/{k}")).collect();
        for (k, id) in models.iter().enumerate() {
            router.register_model(&spec(id, 300 + k as u64)).unwrap();
        }
        let harness = ChaosHarness::new(
            Arc::clone(&router),
            shard_cfg(quick_engine()),
            models,
            IN_DIM,
            4,
            Duration::from_secs(2),
            0xC0FF_EE00,
        );
        (root, router, harness)
    };
    let (root_a, router_a, mut a) = mk("chaos-a");
    let (root_b, router_b, mut b) = mk("chaos-b");
    let schedule = ChaosSchedule::seeded(0xABCD, 40, 3);
    let ra = a.run(&schedule);
    let rb = b.run(&schedule);
    assert_eq!(
        ra.determinism_key(),
        rb.determinism_key(),
        "same seeds must replay identically:\n  a: {}\n  b: {}",
        ra.determinism_key(),
        rb.determinism_key()
    );
    for (name, r) in [("a", &ra), ("b", &rb)] {
        assert_eq!(r.lost, 0, "fleet {name} lost replies");
        assert_eq!(r.duplicated, 0, "fleet {name} duplicated replies");
        assert_eq!(r.mismatched, 0, "fleet {name} served wrong bits");
        assert!(r.recovered_bit_identical, "fleet {name} recovery drifted");
        assert_eq!(r.sent, r.ok + r.failed, "fleet {name} reply accounting");
    }
    assert!(ra.sent > 0, "the schedule must route traffic");
    finish(&router_a, &root_a);
    finish(&router_b, &root_b);
}

#[test]
fn scripted_chaos_kill_corrupt_revive_never_serves_wrong_bits() {
    // WAL corruption on a dead shard: its revive either fails loudly or
    // recovers a clean WAL prefix that reconciliation heals — in no
    // case may the fleet ever answer different bits than the golden
    // capture.
    let root = tmp_root("chaos-wal");
    let router = fleet_with(&root, 3, strict(2));
    let models: Vec<String> = (0..3).map(|k| format!("wal/{k}")).collect();
    for (k, id) in models.iter().enumerate() {
        router.register_model(&spec(id, 400 + k as u64)).unwrap();
    }
    let victim = router.placement(&models[0])[0];
    let mut harness = ChaosHarness::new(
        Arc::clone(&router),
        shard_cfg(quick_engine()),
        models,
        IN_DIM,
        4,
        Duration::from_secs(2),
        0xDEAD_BEEF,
    );
    let schedule = ChaosSchedule::scripted(vec![
        ChaosEvent::Traffic { requests: 12 },
        ChaosEvent::Kill { shard: victim },
        ChaosEvent::Traffic { requests: 12 },
        ChaosEvent::CorruptWal {
            shard: victim,
            rate: 0.02,
            seed: 0x5EED,
        },
        ChaosEvent::Revive { shard: victim },
        ChaosEvent::Probe { rounds: 1 },
        ChaosEvent::Traffic { requests: 12 },
    ]);
    let report = harness.run(&schedule);
    assert_eq!(report.kills, 1);
    assert!(report.wal_bytes_corrupted > 0, "corruption must land");
    assert_eq!(
        report.revives + report.revive_rejected,
        1,
        "exactly one revive attempt: {report:?}"
    );
    assert_eq!(report.lost, 0);
    assert_eq!(report.duplicated, 0);
    assert_eq!(
        report.mismatched, 0,
        "corruption must never surface as bits"
    );
    assert!(report.recovered_bit_identical);
    finish(&router, &root);
}

#[test]
fn shard_opens_standalone_for_embedding() {
    // The Shard type is usable without a router — the embeddable unit.
    let root = tmp_root("solo");
    let shard = Shard::open(0, &root, shard_cfg(quick_engine())).unwrap();
    assert_eq!(shard.index(), 0);
    assert!(shard.root().ends_with("shard-000"));
    shard.place(&ModelRegistry::build(&spec("solo/m", 1)).unwrap(), None);
    let input = probe_input(4);
    let (tx, rx) = std::sync::mpsc::channel();
    shard
        .engine()
        .enqueue("solo/m", input.clone(), Duration::from_secs(2), 9, &tx)
        .unwrap();
    drop(tx);
    let (tag, out) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(tag, 9);
    let variant = shard.engine().registry().get("solo/m").unwrap();
    assert_eq!(bits(&out.unwrap()), bits(&variant.model.evaluate(&input)));
    assert!(shard.evict("solo/m"));
    assert!(!shard.evict("solo/m"));
    shard.checkpoint().unwrap();
    shard.engine().assert_conserved();
    shard.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn delayed_shard_never_stalls_the_reactor() {
    // A delay fault is a slow accelerator: it holds up only the sick
    // shard's lane, never the reactor that admitted the request, so a
    // health check on another connection answers at once.
    let root = tmp_root("http-delay");
    let delay = Duration::from_millis(400);
    let router = fleet(&root, 2, no_hedge());
    let id = model_with_primary(&router, 0, "http-delay");
    router.register_model(&spec(&id, 61)).unwrap();
    sicken(&router, 0, InjectedFault::slow(delay));
    let input = probe_input(12);
    let reference = direct(&router, 0, &id, &input);
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut delayed = af_serve::Client::connect(server.addr()).unwrap();
    let mut health = af_serve::Client::connect(server.addr()).unwrap();
    let t0 = Instant::now();
    let request = std::thread::spawn(move || (delayed.infer(&id, &input), t0.elapsed()));
    // Ask once the reactor has started routing the delayed request.
    while router.stats().snapshot().requests == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let asked = Instant::now();
    assert!(health.healthz().unwrap());
    let answered_in = asked.elapsed();
    let (out, took) = request.join().unwrap();
    assert!(
        answered_in < Duration::from_millis(100),
        "/healthz took {answered_in:?} behind a {delay:?} shard delay"
    );
    assert!(took >= delay, "the delay lands on its request: {took:?}");
    assert_eq!(bits(&out.unwrap()), reference);
    server.shutdown();
    finish(&router, &root);
}

#[test]
fn degraded_serving_meets_the_holders_shed() {
    // R=1: the only on-ring replica (shard 0) trips its breaker, so the
    // model degrades to an off-ring holder (shard 1). A shed on that
    // holder lives in its engine admission, which degraded attempts
    // pass too, so the caller gets the holder's error, not an answer.
    let root = tmp_root("degraded-shed");
    let router = fleet_with(&root, 2, strict(1));
    let id = model_with_primary(&router, 0, "degraded-shed");
    router.register_model(&spec(&id, 93)).unwrap();
    let holder = router.shard(1).unwrap();
    holder.place(&ModelRegistry::build(&spec(&id, 93)).unwrap(), None);
    let input = probe_input(14);
    sicken(&router, 0, InjectedFault::hard_failure());
    for _ in 0..3 {
        assert_eq!(
            router.infer(&id, input.clone()),
            Err(ServeError::Overloaded)
        );
    }
    assert_eq!(router.health().state(0), BreakerState::Open);
    let served = router.infer(&id, input.clone()).expect("degraded serve");
    assert_eq!(bits(&served), direct(&router, 1, &id, &input));
    sicken(&router, 1, InjectedFault::hard_failure());
    assert_eq!(router.infer(&id, input), Err(ServeError::Overloaded));
    assert_eq!(router.stats().snapshot().degraded, 1);
    assert_eq!(holder.engine().stats().snapshot().shed, 1);
    finish(&router, &root);
}
