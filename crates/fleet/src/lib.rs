//! # af-fleet — the sharded multi-model serving fleet
//!
//! One `af_serve::Engine` is one shard: one accelerator's worth of
//! compute, one registry, one durable store. This crate is the tier
//! above — routing millions of requests across N shards so the fleet
//! survives exactly the failures the paper's resilient encodings are
//! built for: stragglers, saturated replicas, and killed processes.
//! Std-only, like the rest of the workspace. Four pieces:
//!
//! 1. **Consistent-hash ring** ([`ring`]) — model-id → R-way replica
//!    set through virtual nodes (default 256/shard keeps every shard's
//!    key share within a few percent of uniform). Membership changes
//!    move only the keys the ring itself moves: joins pull keys *onto*
//!    the new shard, departures spill *its* keys — never a fleet-wide
//!    reshuffle. Hashing is seeded and deterministic, so independent
//!    routers agree on placement without coordination.
//! 2. **Hedged routing** ([`router`]) — [`FleetRouter`] sends each
//!    request to the lightest-loaded live replica (stable-sorted by the
//!    `queue_depth + in_flight` gauge, ring order breaking ties), then
//!    hedges to the next after a deterministic SplitMix64-jittered
//!    latency budget. Both attempts answer into one tagged channel
//!    (`Engine::enqueue`); first success wins, the loser's reply is
//!    discarded for free. Transient shard errors (shed, shutdown,
//!    worker fault) fail over immediately — only `BadInput` is final.
//! 3. **Fleet operations** ([`router`]) — register/hot-swap fan out to
//!    the replica set with per-shard generation counters; scrub fans
//!    out to every shard; [`FleetRouter::reconcile`] converges every
//!    shard to catalog × ring placement after any membership change.
//! 4. **Warm-start** ([`shard`]) — each shard's identity is its own
//!    `shard-NNN/` checkpoint + WAL ([`af_store::shard_root`]). A
//!    killed replica ([`FleetRouter::kill`]) stays on the ring while
//!    its requests fail over; [`FleetRouter::revive`] replays its store
//!    and it rejoins serving **bit-identical** weights with zero
//!    requantization.
//!
//! The TCP front end ([`server`]) speaks the same wire protocol as
//! `af_serve::server`, so `af_serve::Client` (retries, deadlines)
//! drives a fleet and a single engine interchangeably. It routes on
//! its epoll reactor: the router is one state machine stepped by reply
//! and timer events, so no thread sits between a connection and the
//! shard engines.
//!
//! Chaos runs ([`chaos`]) sicken a shard through its engine's one fault
//! seam (`af_serve::Engine::inject_fault`), so an injected shed meets
//! every route a request can take — hedged, failed-over or degraded —
//! and an injected delay stalls only the sick shard's compute workers,
//! never the thread that admitted the request.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod chaos;
pub mod health;
mod lock;
pub mod ring;
pub mod router;
pub mod server;
pub mod shard;

pub use chaos::{ChaosEvent, ChaosHarness, ChaosReport, ChaosSchedule};
pub use health::{
    Admission, BreakerState, HealthPolicy, HealthRegistry, HealthSnapshot, Transition,
};
pub use ring::{HashRing, VNODES_PER_SHARD};
pub use router::{FleetConfig, FleetRouter, FleetSnapshot, FleetStats, HedgePolicy};
pub use server::FleetServer;
pub use shard::{Shard, ShardConfig};
