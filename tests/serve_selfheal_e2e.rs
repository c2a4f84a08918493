//! Self-healing serving, end to end: faults injected into a *live*
//! variant's SEC-DED protected weight storage over real TCP
//! connections, exercising the four recovery paths the subsystem
//! promises:
//!
//! 1. **Scrub repair** — a single-bit upset in the live store is
//!    repaired by the background scrubber, and storage decodes back to
//!    exactly the weights being served (responses stay bit-identical).
//! 2. **Rebuild + hot swap** — an uncorrectable (double-bit) upset
//!    triggers a rebuild from the retained f32 master and a
//!    generation-bumped snapshot swap, with **no** in-flight request
//!    failing.
//! 3. **Worker supervision** — a panicking evaluate pass fails its batch
//!    with an explicit `500` (never a hang) and its worker serves on.
//! 4. **Client retry** — a deterministic `429` shed is absorbed by the
//!    client's bounded backoff-with-jitter retry, within one deadline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivfloat::FormatKind;
use af_models::{FrozenMlp, ModelFamily};
use af_serve::{
    Client, ClientError, Engine, EngineConfig, InjectedFault, ModelRegistry, RetryPolicy, Server,
    VariantSpec,
};

const VARIANT: &str = "resnet/af8";
const IN_DIM: usize = 16;

fn protected_registry() -> Arc<ModelRegistry> {
    let reg = ModelRegistry::new();
    reg.register(
        &VariantSpec::quantized(
            VARIANT,
            ModelFamily::ResNet,
            FormatKind::AdaptivFloat,
            8,
            17,
            &[IN_DIM, 24, 6],
        )
        .protected(),
    )
    .unwrap();
    Arc::new(reg)
}

fn serve(cfg: EngineConfig) -> (Server, Arc<ModelRegistry>) {
    let reg = protected_registry();
    let engine = Arc::new(Engine::start(Arc::clone(&reg), cfg));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind ephemeral port");
    (server, reg)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Extract the first integer following `"key":` in a JSON document.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let i = json
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing from {json}"))
        + pat.len();
    json[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer stats field")
}

#[test]
fn background_scrubber_repairs_live_fault_with_bit_identical_responses() {
    let (server, reg) = serve(EngineConfig {
        scrub_period: Some(Duration::from_millis(20)),
        ..EngineConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let x = FrozenMlp::synth_inputs(5, 1, IN_DIM);
    let baseline = client.infer(VARIANT, x.row(0)).unwrap();

    // Strike one data bit of the live variant's protected storage.
    let variant = reg.get(VARIANT).unwrap();
    variant
        .protected
        .as_ref()
        .expect("variant is protected")
        .lock()
        .unwrap()
        .flip_bit(0, 1, 11);

    // The background scrubber (no manual scrub here) must find and
    // repair it within a few periods.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats_json().unwrap();
        if json_u64(&stats, "scrub_passes") >= 1 && json_u64(&stats, "ecc_corrected") == 1 {
            assert_eq!(json_u64(&stats, "ecc_uncorrectable"), 0);
            assert_eq!(
                json_u64(&stats, "rebuilds"),
                0,
                "no rebuild for a single bit"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scrubber never repaired: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Responses are bit-identical throughout — and stay so for a
    // snapshot rebuilt from the repaired storage, proving the store
    // decodes to exactly the weights being served.
    assert_eq!(
        bits(&client.infer(VARIANT, x.row(0)).unwrap()),
        bits(&baseline)
    );
    let refreshed = reg.refresh_from_storage(VARIANT).unwrap();
    assert_eq!(bits(&refreshed.model.evaluate(x.row(0))), bits(&baseline));
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn uncorrectable_fault_rebuilds_and_hot_swaps_without_failing_in_flight_requests() {
    let (server, reg) = serve(EngineConfig::default());
    let engine = Arc::clone(server.engine());
    let mut client = Client::connect(server.addr()).unwrap();
    let x = FrozenMlp::synth_inputs(6, 1, IN_DIM);
    let baseline = client.infer(VARIANT, x.row(0)).unwrap();

    // Double-bit upset in one storage word: beyond SEC-DED correction.
    {
        let variant = reg.get(VARIANT).unwrap();
        let mut store = variant.protected.as_ref().unwrap().lock().unwrap();
        store.flip_bit(0, 2, 7);
        store.flip_bit(0, 2, 33);
    }

    // Keep requests in flight from several connections while the scrub
    // detects the uncorrectable word, rebuilds from the master, and hot
    // swaps the snapshot.
    let addr = server.addr();
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let x = FrozenMlp::synth_inputs(6, 1, IN_DIM);
                let mut outputs = Vec::new();
                for _ in 0..40 {
                    outputs.push(c.infer(VARIANT, x.row(0)).unwrap_or_else(|e| {
                        panic!("in-flight request failed during rebuild (thread {t}): {e}")
                    }));
                }
                outputs
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let summary = engine.scrub_now();
    assert_eq!(summary.uncorrectable, 1);
    assert_eq!(summary.rebuilds, 1);
    for w in workers {
        for out in w.join().unwrap() {
            assert_eq!(bits(&out), bits(&baseline), "every reply bit-identical");
        }
    }

    // The rebuild republished: generation bumped, storage clean, and
    // the swapped snapshot answers the same bits.
    let current = reg.get(VARIANT).unwrap();
    assert_eq!(current.generation, 1);
    assert_eq!(
        bits(&client.infer(VARIANT, x.row(0)).unwrap()),
        bits(&baseline)
    );
    let stats = client.stats_json().unwrap();
    assert_eq!(json_u64(&stats, "rebuilds"), 1);
    assert_eq!(json_u64(&stats, "ecc_uncorrectable"), 1);
    assert!(stats.contains("\"protected\":true"));
    assert!(stats.contains("\"generation\":1"));
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn panicked_worker_answers_500_then_recovers_and_counts_the_restart() {
    let trigger = -777.25f32;
    let (server, reg) = serve(EngineConfig {
        max_batch: 1,
        ..EngineConfig::default()
    });
    server.engine().inject_fault(Some(InjectedFault {
        panic_on: Some(trigger),
        ..InjectedFault::default()
    }));
    let mut client = Client::connect(server.addr()).unwrap();
    let mut poison = vec![0.0f32; IN_DIM];
    poison[0] = trigger;
    match client.infer(VARIANT, &poison) {
        Err(ClientError::Http { status: 500, .. }) => {}
        other => panic!("poisoned batch must answer 500, got {other:?}"),
    }
    // Same connection, same variant: the engine serves correct
    // bits immediately.
    let x = FrozenMlp::synth_inputs(7, 1, IN_DIM);
    let got = client.infer(VARIANT, x.row(0)).unwrap();
    let direct = reg.get(VARIANT).unwrap().model.evaluate(x.row(0));
    assert_eq!(bits(&got), bits(&direct));
    let stats = client.stats_json().unwrap();
    assert_eq!(json_u64(&stats, "worker_restarts"), 1);
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn client_retry_recovers_from_deterministic_shed_within_one_deadline() {
    // One-deep queue, one-wide batches, slow service: two parked
    // requests make the very next arrival a deterministic 429.
    let (server, reg) = serve(EngineConfig {
        max_batch: 1,
        queue_cap: 1,
        ..EngineConfig::default()
    });
    let slow = InjectedFault::slow(Duration::from_millis(120));
    server.engine().inject_fault(Some(slow));
    let addr = server.addr();
    let park = || {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let x = FrozenMlp::synth_inputs(8, 1, IN_DIM);
            c.infer(VARIANT, x.row(0)).unwrap()
        })
    };
    // Stagger the two parked requests so the first reaches the worker
    // (now sleeping out its service delay) before the second takes the
    // single queue slot.
    let first = park();
    std::thread::sleep(Duration::from_millis(40));
    let second = park();
    std::thread::sleep(Duration::from_millis(40));
    let parked = [first, second];

    let mut client = Client::connect(addr).unwrap();
    let x = FrozenMlp::synth_inputs(8, 1, IN_DIM);
    // Without retry, the saturated lane sheds.
    match client.infer(VARIANT, x.row(0)) {
        Err(ClientError::Http { status: 429, .. }) => {}
        other => panic!("saturated lane must shed with 429, got {other:?}"),
    }
    // With retry, backoff rides out the shed inside one deadline.
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(40),
        max_backoff: Duration::from_millis(200),
        jitter_seed: 42,
    };
    let (out, attempts) = client
        .infer_with_retry(VARIANT, x.row(0), Duration::from_secs(3), &policy)
        .unwrap();
    assert!(attempts > 1, "the shed must have forced at least one retry");
    let direct = reg.get(VARIANT).unwrap().model.evaluate(x.row(0));
    assert_eq!(bits(&out), bits(&direct));
    for p in parked {
        assert_eq!(bits(&p.join().unwrap()), bits(&direct));
    }
    assert!(json_u64(&client.stats_json().unwrap(), "shed") >= 1);
    server.engine().assert_conserved();
    server.shutdown();
}
