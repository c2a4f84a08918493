//! `af-store`: the durable model store.
//!
//! Serving state in this workspace is expensive to build (quantization
//! plans, codebooks, SEC-DED parity) and deliberately deterministic.
//! This crate makes it *durable*: each frozen variant persists as a
//! compact, versioned, checksummed container (packed codes + frozen
//! per-layer plan parameters + SEC-DED parity), registry mutations
//! stream through an append-only write-ahead log, and compaction folds
//! the log into immutable, rollback-able checkpoints. A serving
//! process that dies mid-traffic reopens the store and republishes
//! bit-identical variants without ever touching the f32 master — zero
//! requantization on the recovery path.
//!
//! Layers, bottom-up:
//!
//! - [`crc`] / [`bytes`]: CRC-32 (IEEE, zlib-compatible) and
//!   bounds-checked little-endian (de)serialization.
//! - [`container`]: the `.afc` single-variant format. Per-section CRCs;
//!   LAYER sections additionally self-heal single-bit flips through
//!   their own SEC-DED parity.
//! - [`wal`]: the mutation log. Torn tails drop cleanly; batched
//!   `fsync`.
//! - [`store`]: the root-directory layout (`CURRENT`, `wal.log`,
//!   `variants/`, `ckpt-NNNNNN/`), recovery fold, checkpointing,
//!   rollback.
//!
//! Everything fails typed ([`StoreError`]) — corrupt or truncated input
//! never panics.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bytes;
pub mod container;
pub mod crc;
mod error;
pub mod store;
pub mod wal;

pub use container::{
    decode_container, encode_container, raw_f32_codes, read_container, write_container,
    write_container_body, ActRecord, ContainerBody, ReadReport, SpecRecord, StoredLayer,
    StoredVariant, CONTAINER_MAGIC, CONTAINER_VERSION,
};
pub use error::StoreError;
pub use store::{container_file_name, shard_root, Recovery, Store, StoreStats};
pub use wal::{replay, SyncPolicy, WalOp, WalRecord, WalReplay, WalWriter, WAL_MAGIC, WAL_VERSION};
