//! # af-serve — the quantized inference serving engine
//!
//! Turns the workspace's quantization kernels, LUT codebooks, and
//! scoped-thread runtime into an end-to-end inference stack, built only
//! on `std` (`TcpListener`, threads, channels). Four layers:
//!
//! 1. **Model registry** ([`registry`]) — loads [`af_models::FrozenMlp`]
//!    snapshots, quantizes their weights once per `(FormatKind, n)`
//!    variant at registration, calibrates activation ranges (building
//!    each calibrated plan builds, and so pre-warms, its LUT codebook),
//!    and hands out
//!    immutable `Arc`-shared snapshots — hot-swapping a variant never
//!    blocks an in-flight request.
//! 2. **Work-conserving micro-batching** ([`batcher`], [`queue`]) — a
//!    lane evaluates whatever is queued for its variant (up to
//!    `max_batch`) as one blocked-matmul pass as soon as it is free to
//!    run it; no timer holds a request back, and batches grow under
//!    load from requests that arrive during the previous pass. Invariant:
//!    batched outputs are **bit-identical** to single-request
//!    evaluation (row-independent ascending-k accumulation; pinned by
//!    `af-models/tests/frozen_batch.rs` and `tests/serve_e2e.rs`).
//! 3. **Admission & backpressure** — each variant owns a bounded queue;
//!    a full queue sheds load with an explicit `429` instead of growing
//!    latency without bound, and per-request deadlines turn into `504`s
//!    rather than zombie work.
//! 4. **Protocol** ([`http`], [`server`], [`client`]) — a minimal
//!    HTTP/1.1 handler (`GET /healthz`, `GET /stats`,
//!    `POST /v1/infer/<variant>` with a length-delimited little-endian
//!    `f32` body) plus a persistent-connection [`client::Client`] with
//!    bounded deadline-aware retry ([`RetryPolicy`]). The connection
//!    tier is an epoll **reactor** ([`reactor`], [`sys`], [`timer`]):
//!    one event-loop thread multiplexes every socket non-blocking,
//!    feeding an incremental parser ([`http::RequestParser`]) and
//!    resuming partial writes on readiness, with a timer wheel closing
//!    idle and slow-loris connections (`408`) and an eventfd waking the
//!    loop when lane workers finish a reply. Compute never runs on the
//!    reactor thread — requests cross into the engine through the same
//!    tagged non-blocking enqueue the fleet tier uses.
//! 5. **Protected storage & self-healing** ([`protect`], [`scrub`]) —
//!    variants registered with [`VariantSpec::protected`] keep their
//!    frozen weight codes behind SEC-DED parity
//!    ([`af_resilience::ProtectedCodes`]); a background scrubber
//!    repairs single-bit upsets in place, uncorrectable words trigger a
//!    re-encode from the FP32 checkpoint plus a hot swap, and a
//!    supervisor restarts panicked lane workers (in-flight batch fails
//!    with `500`, never hangs).
//!
//! 6. **Durable store & crash recovery** ([`durable`]) — a
//!    [`DurableStore`] journals every registry mutation through
//!    [`af_store`]'s write-ahead log and persists each variant as an
//!    ECC-protected container, so a `kill -9` mid-traffic recovers to
//!    **bit-identical** serving (weights from stored codes, activation
//!    plans from stored calibrated ranges — zero requantization) with
//!    generation counters intact.
//!
//! The in-process path ([`Engine::infer`](batcher::Engine::infer)) and
//! the TCP path share every layer below the protocol, so tests can
//! drive either.
//!
//! The engine is also an **embeddable fleet shard**: lanes come and go
//! at runtime ([`Engine::ensure_lane`](batcher::Engine::ensure_lane) /
//! [`Engine::remove_lane`](batcher::Engine::remove_lane)) as a router
//! rebalances placement, [`Engine::enqueue`](batcher::Engine::enqueue)
//! admits without blocking so hedged attempts race on one tagged reply
//! channel, [`Engine::load`](batcher::Engine::load) publishes the
//! structural `queue_depth`/`in_flight` gauges replica selection reads,
//! and [`EngineConfig::compute_slots`](batcher::EngineConfig) caps a
//! shard to one accelerator's worth of concurrent evaluate passes. The
//! routing tier itself lives in `af-fleet`.
//!
//! Faults enter through one seam, [`Engine::inject_fault`](batcher::Engine::inject_fault):
//! an [`InjectedFault`] slows every evaluate pass on its lane worker
//! (`delay`), sheds every admission before any other check (`shed`),
//! or panics a lane worker mid-batch (`panic_on`). The production
//! config ([`EngineConfig`]) carries no test hooks, and no admitting
//! thread — a caller, the reactor, a fleet router — ever sleeps for a
//! fault. Every request the engine sees is counted exactly once:
//! `received = admitted + shed + rejected` and, at quiescence,
//! `admitted = completed + expired + failed`
//! ([`Engine::assert_conserved`](batcher::Engine::assert_conserved)).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod batcher;
pub mod client;
pub mod durable;
pub mod http;
pub mod protect;
pub mod queue;
pub mod reactor;
pub mod registry;
pub mod scrub;
pub mod server;
pub mod stats;
pub mod sys;
pub mod timer;

pub use batcher::{Engine, EngineConfig, InjectedFault, ServeError, TaggedReply};
pub use client::{Client, ClientBuilder, ClientError, ClientTimeouts, RetryPolicy};
pub use durable::{DurableOpen, DurableStore, RecoveryReport};
pub use protect::ProtectedWeights;
pub use reactor::{Dispatch, Progress, ReactorConfig, ReactorHandle};
pub use registry::{
    BuiltVariant, ModelRegistry, ModelVariant, RegistryJournal, ScrubOutcome, VariantSpec,
};
pub use scrub::{ScrubSummary, Scrubber};
pub use server::Server;
pub use stats::{ConnSnapshot, ConnStats, ServeStats, StatsSnapshot};
pub use sys::{Interest, Waker};
