//! End-to-end serving tests: a real `TcpListener` on an ephemeral port,
//! real concurrent connections, and the two properties the serving
//! stack exists to hold:
//!
//! 1. **Bit-identity** — every byte a client gets back through TCP +
//!    micro-batching is exactly what direct per-sample
//!    [`FrozenMlp::evaluate`] produces, at any batch mix and thread
//!    count.
//! 2. **Bounded overload** — a saturated variant sheds with an explicit
//!    `429` instead of queueing without bound, and successful responses
//!    under overload are still bit-exact.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivfloat::FormatKind;
use af_models::{FrozenMlp, ModelFamily};
use af_serve::http::{encode_f32_body, read_response, Response};
use af_serve::{
    Client, ClientError, Engine, EngineConfig, InjectedFault, ModelRegistry, ReactorConfig, Server,
    VariantSpec,
};

fn registry() -> Arc<ModelRegistry> {
    let reg = ModelRegistry::new();
    reg.register(&VariantSpec::fp32(
        "transformer/fp32",
        ModelFamily::Transformer,
        40,
        &[24, 48, 12],
    ))
    .unwrap();
    reg.register(&VariantSpec::quantized(
        "transformer/adaptivfloat8",
        ModelFamily::Transformer,
        FormatKind::AdaptivFloat,
        8,
        40,
        &[24, 48, 12],
    ))
    .unwrap();
    reg.register(&VariantSpec::quantized(
        "resnet/posit6",
        ModelFamily::ResNet,
        FormatKind::Posit,
        6,
        41,
        &[24, 32, 8],
    ))
    .unwrap();
    // Same weights as transformer/adaptivfloat8, served through the
    // fused quantized-domain GEMM — answers must stay bit-identical.
    reg.register(
        &VariantSpec::quantized(
            "transformer/adaptivfloat8-fused",
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            40,
            &[24, 48, 12],
        )
        .fused(),
    )
    .unwrap();
    Arc::new(reg)
}

fn serve(cfg: EngineConfig) -> (Server, Arc<ModelRegistry>) {
    let reg = registry();
    let engine = Arc::new(Engine::start(Arc::clone(&reg), cfg));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind ephemeral port");
    (server, reg)
}

#[test]
fn concurrent_tcp_requests_are_bit_identical_to_direct_evaluation() {
    let (server, reg) = serve(EngineConfig {
        max_batch: 8,
        ..EngineConfig::default()
    });
    let addr = server.addr();
    let ids = [
        "transformer/fp32",
        "transformer/adaptivfloat8",
        "resnet/posit6",
        "transformer/adaptivfloat8-fused",
    ];
    let handles: Vec<_> = (0..12u64)
        .map(|t| {
            let id = ids[t as usize % ids.len()];
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let inputs = FrozenMlp::synth_inputs(500 + t, 8, 24);
                let mut answers = Vec::new();
                for r in 0..inputs.rows() {
                    let out = client.infer(id, inputs.row(r)).expect("infer");
                    answers.push((inputs.row(r).to_vec(), out));
                }
                (id, answers)
            })
        })
        .collect();
    for h in handles {
        let (id, answers) = h.join().expect("client thread");
        let model = &reg.get(id).expect("variant").model;
        for (input, served) in answers {
            let direct = model.evaluate(&input);
            let got: Vec<u32> = served.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "served bits must match direct evaluation ({id})");
        }
    }
    let snap = server.engine().stats().snapshot();
    assert_eq!(snap.completed, 12 * 8);
    assert_eq!(snap.shed, 0);
    assert!(snap.batches >= 1);
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_with_429_and_correct_responses_elsewhere() {
    // One request evaluated per 150 ms, two queue slots: a concurrent
    // burst of 10 must shed.
    let (server, reg) = serve(EngineConfig {
        max_batch: 1,
        queue_cap: 2,
        default_deadline: Duration::from_secs(10),
        ..EngineConfig::default()
    });
    let slow = InjectedFault::slow(Duration::from_millis(150));
    server.engine().inject_fault(Some(slow));
    let addr = server.addr();
    let handles: Vec<_> = (0..10u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let x = FrozenMlp::synth_inputs(700 + t, 1, 24);
                let input = x.row(0).to_vec();
                (input.clone(), client.infer("transformer/fp32", &input))
            })
        })
        .collect();
    let model = &reg.get("transformer/fp32").expect("variant").model;
    let (mut ok, mut shed) = (0, 0);
    for h in handles {
        let (input, result) = h.join().expect("client thread");
        match result {
            Ok(served) => {
                ok += 1;
                let direct = model.evaluate(&input);
                let got: Vec<u32> = served.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "overload must not corrupt served answers");
            }
            Err(ClientError::Http {
                status: 429,
                retry_after,
                ..
            }) => {
                shed += 1;
                assert_eq!(
                    retry_after,
                    Some(Duration::ZERO),
                    "a shed must carry its Retry-After hint"
                );
            }
            Err(e) => panic!("unexpected outcome under overload: {e}"),
        }
    }
    assert!(ok >= 1, "some requests must still be served");
    assert!(shed >= 1, "a full bounded queue must shed with 429");
    assert_eq!(ok + shed, 10);
    let snap = server.engine().stats().snapshot();
    assert_eq!(snap.shed, shed as u64);
    assert_eq!(snap.completed, ok as u64);
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn health_stats_and_protocol_errors() {
    let (server, _reg) = serve(EngineConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(client.healthz().expect("healthz"));

    // Unknown variant → 404; wrong width → 400; tight deadline → 504.
    let err = client.infer("no/such", &[0.0; 24]).unwrap_err();
    assert!(
        matches!(err, ClientError::Http { status: 404, .. }),
        "{err}"
    );
    let err = client.infer("transformer/fp32", &[0.0; 3]).unwrap_err();
    assert!(
        matches!(err, ClientError::Http { status: 400, .. }),
        "{err}"
    );
    let x = FrozenMlp::synth_inputs(9, 1, 24);
    let _ = client
        .infer_with_deadline_ms("transformer/fp32", x.row(0), 2000)
        .expect("generous deadline");

    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"completed\":"));
    assert!(stats.contains("\"id\":\"transformer/adaptivfloat8\""));
    assert!(stats.contains("\"weight_format\":\"AdaptivFloat<8,3>\""));
    // The fused variant reports its packed-GEMM path (2 fused layers).
    assert!(stats.contains("\"id\":\"transformer/adaptivfloat8-fused\""));
    assert!(stats.contains("\"fused_gemm\":true,\"fused_layers\":2"));
    assert!(stats.contains("\"fused_gemm\":false"));
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn hot_swap_is_visible_to_new_requests_without_disrupting_service() {
    let (server, reg) = serve(EngineConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let x = FrozenMlp::synth_inputs(11, 1, 24);
    let input = x.row(0).to_vec();
    let before = client
        .infer("transformer/fp32", &input)
        .expect("before swap");

    // Re-register the id with a different seed (new weights).
    reg.register(&VariantSpec::fp32(
        "transformer/fp32",
        ModelFamily::Transformer,
        99,
        &[24, 48, 12],
    ))
    .expect("hot swap");

    let after = client
        .infer("transformer/fp32", &input)
        .expect("after swap");
    assert_ne!(before, after, "new requests must see the swapped weights");
    let direct = reg.get("transformer/fp32").unwrap().model.evaluate(&input);
    let got: Vec<u32> = after.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
    assert_eq!(reg.get("transformer/fp32").unwrap().generation, 1);
    server.engine().assert_conserved();
    server.shutdown();
}

/// Frame a `POST /v1/infer/<variant>` request on the wire.
fn infer_wire(variant: &str, input: &[f32], deadline_ms: Option<&str>) -> Vec<u8> {
    let body = encode_f32_body(input);
    let mut head = format!(
        "POST /v1/infer/{variant} HTTP/1.1\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(d) = deadline_ms {
        head.push_str(&format!("x-deadline-ms: {d}\r\n"));
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&body);
    wire
}

/// A `text/plain` response exactly as it appears on the wire.
fn text_reply(status: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\ncontent-type: text/plain\r\ncontent-length: {}\r\n\
         connection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `200` carrying `model`'s direct evaluation of `input`: a
/// little-endian `u32` count, then each output's little-endian bits.
fn f32_reply(model: &FrozenMlp, input: &[f32]) -> Vec<u8> {
    let out = model.evaluate(input);
    assert_eq!(out.len(), 12, "the transcript pins a 12-wide output");
    let mut wire = b"HTTP/1.1 200 OK\r\ncontent-type: application/octet-stream\r\n\
        content-length: 52\r\nconnection: keep-alive\r\n\r\n"
        .to_vec();
    wire.extend_from_slice(&12u32.to_le_bytes());
    for v in out {
        wire.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    wire
}

/// Write `wire`, half-close, and collect every response byte until EOF.
fn exchange_bytes(addr: SocketAddr, wire: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(wire).expect("send stream");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("read until EOF");
    got
}

/// [`exchange_bytes`], parsed into responses.
fn exchange_stream(addr: SocketAddr, wire: &[u8]) -> Vec<Response> {
    let bytes = exchange_bytes(addr, wire);
    let mut reader = &bytes[..];
    let mut responses = Vec::new();
    while !reader.is_empty() {
        responses.push(read_response(&mut reader).expect("well-framed response"));
    }
    responses
}

/// Golden transcripts: the exact bytes — status line, every header,
/// body — the server sends back for each request stream. Text bodies
/// are pinned literally; `f32` bodies are direct evaluation's bits.
#[test]
fn golden_wire_transcripts_pin_every_response_byte() {
    let (server, reg) = serve(EngineConfig::default());
    let fp32 = &reg.get("transformer/fp32").expect("variant").model;
    let af8 = &reg.get("transformer/adaptivfloat8").expect("variant").model;
    let x = FrozenMlp::synth_inputs(77, 2, 24);

    let mut keep_alive: Vec<u8> = Vec::new();
    keep_alive.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    keep_alive.extend_from_slice(b"GET /nowhere HTTP/1.1\r\n\r\n");
    keep_alive.extend_from_slice(b"DELETE /healthz HTTP/1.1\r\n\r\n");
    keep_alive.extend_from_slice(b"POST /elsewhere HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    keep_alive.extend_from_slice(&infer_wire("transformer/fp32", x.row(0), None));
    keep_alive.extend_from_slice(&infer_wire("transformer/adaptivfloat8", x.row(1), None));
    keep_alive.extend_from_slice(&infer_wire("no/such", x.row(0), None));
    keep_alive.extend_from_slice(&infer_wire("transformer/fp32", &[1.0; 3], None));
    keep_alive.extend_from_slice(&infer_wire("transformer/fp32", x.row(0), Some("forever")));
    keep_alive.extend_from_slice(
        b"POST /v1/infer/transformer/fp32 HTTP/1.1\r\ncontent-length: 4\r\n\r\nload",
    );
    let keep_alive_answers = [
        text_reply("200 OK", "ok"),
        text_reply("404 Not Found", "no such route"),
        text_reply("405 Method Not Allowed", "method not allowed"),
        text_reply("405 Method Not Allowed", "method not allowed"),
        f32_reply(fp32, x.row(0)),
        f32_reply(af8, x.row(1)),
        text_reply("404 Not Found", "unknown model variant: no/such"),
        text_reply("400 Bad Request", "bad input width: expected 24, got 3"),
        text_reply("400 Bad Request", "malformed x-deadline-ms"),
        text_reply("400 Bad Request", "malformed f32 body"),
    ]
    .concat();
    // Protocol violations answer one specific status, then close.
    let transcripts: [(&[u8], Vec<u8>); 4] = [
        (&keep_alive, keep_alive_answers),
        (
            b"POST /v1/infer/m HTTP/1.1\r\ncontent-length: junk\r\n\r\n",
            text_reply("400 Bad Request", "bad content-length"),
        ),
        (
            b"POST /v1/infer/m HTTP/1.1\r\n\r\n",
            text_reply("400 Bad Request", "missing content-length"),
        ),
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
            text_reply("413 Payload Too Large", "body too large"),
        ),
    ];
    for (i, (wire, want)) in transcripts.iter().enumerate() {
        let got = exchange_bytes(server.addr(), wire);
        assert!(
            got == *want,
            "stream {i} left the golden transcript\n got: {}\nwant: {}",
            got.escape_ascii(),
            want.escape_ascii()
        );
    }
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn reply_tags_survive_the_request_sequence_wrap() {
    // A reply tag carries 16 bits of its connection's request sequence,
    // so one keep-alive connection past 2^16 requests reuses every
    // sequence value. Each request carries a distinct input, so a reply
    // matched to the wrong request cannot pass the bit check.
    const REQUESTS: usize = (1 << 16) + 64;
    const WINDOW: usize = 32;
    let reg = ModelRegistry::new();
    reg.register(&VariantSpec::fp32(
        "m",
        ModelFamily::Seq2Seq,
        11,
        &[8, 12, 4],
    ))
    .expect("register");
    let reg = Arc::new(reg);
    let engine = Arc::new(Engine::start(Arc::clone(&reg), EngineConfig::default()));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind");
    let model = &reg.get("m").expect("variant").model;
    // Exact in f32: i * 8 + j < 2^24, divided by a power of two.
    let input = |i: usize| -> Vec<f32> { (0..8).map(|j| (i * 8 + j) as f32 / 65536.0).collect() };

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut sent = 0;
    for answered in 0..REQUESTS {
        while sent < REQUESTS && sent < answered + WINDOW {
            stream
                .write_all(&infer_wire("m", &input(sent), None))
                .expect("send");
            sent += 1;
        }
        let response = read_response(&mut reader).expect("response");
        assert_eq!(response.status, 200, "request {answered}");
        let served = af_serve::http::decode_f32_body(&response.body).expect("f32 body");
        let direct = model.evaluate(&input(answered));
        assert!(
            served
                .iter()
                .map(|v| v.to_bits())
                .eq(direct.iter().map(|v| v.to_bits())),
            "request {answered} must get its own input's answer"
        );
    }
    assert_eq!(
        server.engine().stats().snapshot().completed,
        REQUESTS as u64
    );
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn pipelined_and_dribbled_requests_share_one_connection() {
    let (server, reg) = serve(EngineConfig::default());
    let model = &reg.get("transformer/fp32").expect("variant").model;
    let x = FrozenMlp::synth_inputs(31, 3, 24);

    // Three requests coalesced into a single write.
    let mut wire = Vec::new();
    for r in 0..3 {
        wire.extend_from_slice(&infer_wire("transformer/fp32", x.row(r), None));
    }
    let responses = exchange_stream(server.addr(), &wire);
    assert_eq!(responses.len(), 3, "pipelined requests each get an answer");
    for (r, response) in responses.iter().enumerate() {
        assert_eq!(response.status, 200);
        let served = af_serve::http::decode_f32_body(&response.body).expect("f32 body");
        let direct = model.evaluate(x.row(r));
        assert_eq!(
            served.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "pipelined response {r} must stay bit-exact"
        );
    }

    // The same request dribbled a few bytes at a time must parse
    // across arbitrary segment boundaries.
    let wire = infer_wire("transformer/fp32", x.row(0), None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for chunk in wire.chunks(7) {
        stream.write_all(chunk).expect("dribble");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("dribbled response");
    assert_eq!(response.status, 200);
    let served = af_serve::http::decode_f32_body(&response.body).expect("f32 body");
    let direct = model.evaluate(x.row(0));
    assert_eq!(
        served.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn slow_loris_connection_is_answered_408_and_closed() {
    let reg = registry();
    let engine = Arc::new(Engine::start(reg, EngineConfig::default()));
    let server = Server::bind_with(
        "127.0.0.1:0",
        engine,
        ReactorConfig {
            header_timeout: Duration::from_millis(100),
            ..ReactorConfig::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Dribble a request head one byte at a time, never finishing it.
    // The deadline anchors at the first byte, so dribbling must not
    // extend it.
    let head = b"GET /healthz HTTP/1.1\r\nx-pad: aaaaaaaaaaaaaaaa\r\n";
    for &byte in head.iter() {
        if stream.write_all(&[byte]).is_err() {
            break; // server already closed on us
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("408 before close");
    assert_eq!(response.status, 408, "slow loris must be told why");
    assert_eq!(response.body, b"request timeout");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after 408");
    assert!(rest.is_empty(), "connection must close after the 408");
    let snap = server.conn_stats().snapshot();
    assert!(snap.timeout_closes >= 1, "timeout close must be counted");

    // A well-behaved client on the same server is unaffected.
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(client.healthz().expect("healthz"));
    server.engine().assert_conserved();
    server.shutdown();
}

#[test]
fn stalled_reader_is_bounded_and_never_blocks_compute() {
    // A variant with a ~256 KiB response so one response overflows the
    // shrunken kernel send buffer.
    let reg = ModelRegistry::new();
    reg.register(&VariantSpec::fp32(
        "big/out",
        ModelFamily::Transformer,
        7,
        &[8, 16, 65536],
    ))
    .expect("register");
    let engine = Arc::new(Engine::start(Arc::new(reg), EngineConfig::default()));
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ReactorConfig {
            write_timeout: Duration::from_millis(150),
            send_buffer: Some(8 * 1024),
            ..ReactorConfig::default()
        },
    )
    .expect("bind");

    // The rogue client: pipeline several requests, then never read.
    let x = FrozenMlp::synth_inputs(55, 1, 8);
    let mut rogue = TcpStream::connect(server.addr()).expect("connect");
    let mut wire = Vec::new();
    for _ in 0..4 {
        wire.extend_from_slice(&infer_wire("big/out", x.row(0), None));
    }
    rogue.write_all(&wire).expect("send");

    // The reactor must stall on the un-read response, close the rogue
    // connection, and count it — within a few write-timeout periods.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.conn_stats().snapshot();
        if snap.write_stalls >= 1 && snap.open_connections == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "write stall must close the rogue connection: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Compute lanes and the event loop stayed live: a polite client is
    // served bit-exactly, and no job is stuck in the engine.
    let mut client = Client::connect(server.addr()).expect("connect");
    let served = client.infer("big/out", x.row(0)).expect("infer");
    assert_eq!(served.len(), 65536);
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.load() != 0 {
        assert!(Instant::now() < deadline, "engine load must return to zero");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(rogue);
    server.engine().assert_conserved();
    server.shutdown();
}
