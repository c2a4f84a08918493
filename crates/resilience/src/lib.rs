//! # af-resilience — seeded fault injection and resilience evaluation
//!
//! The paper's title promises *resilient* deep learning inference; this
//! crate supplies the machinery to measure it. It has three layers:
//!
//! * **Fault model** ([`fault`], [`rng`]) — [`FaultSpec`] describes an
//!   upset (single-bit, multi-bit, stuck-at, burst) at a rate under a
//!   seed; sampling it yields a concrete [`FaultMap`]. All randomness is
//!   keyed per `(seed, element)` through a splittable SplitMix64
//!   ([`rng::SplitMix64`]), so the same seed yields a bit-identical
//!   fault map at any `AF_NUM_THREADS` setting.
//! * **Injection adapters** ([`inject`], [`pe`]) — apply a map to packed
//!   sub-byte code buffers ([`adaptivfloat::PackedCodes`]), unpacked
//!   code words, or raw f32 tensors; [`PeFaultPlan`] strikes the HFINT /
//!   INT PE datapaths through the `af-hw` [`af_hw::DatapathFaults`]
//!   hooks.
//! * **Protection** ([`ecc`], [`protected`]) — the recovery half:
//!   [`ProtectedCodes`] wraps a packed buffer in extended
//!   Hamming(72,64) SEC-DED parity (one byte per raw storage word),
//!   correcting any single-bit upset and detecting double-bit upsets as
//!   uncorrectable, with scrub/decode APIs and [`EccStats`] counters.
//! * **Campaigns** ([`campaign`]) — [`run_weight_campaign`] encodes
//!   tensors into equal-word-size storage through an
//!   [`adaptivfloat::StorageCodec`] per [`adaptivfloat::FormatKind`],
//!   corrupts the stored codes, decodes them under a
//!   [`adaptivfloat::DecodePolicy`], and reports RMS damage and the
//!   hardened decoder's detection counters.
//!
//! The `fault_sweep` binary in `af-bench` drives these campaigns over
//! the paper's toy models and renders the format-vs-fault-rate table.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod campaign;
pub mod ecc;
pub mod fault;
pub mod inject;
pub mod pe;
pub mod protected;
pub mod rng;

pub use campaign::{run_f32_campaign, run_weight_campaign, CampaignConfig, CampaignOutcome};
pub use ecc::{decode_word, encode_word, EccStats, WordDecode, CODEWORD_BITS, PARITY_BITS};
pub use fault::{FaultEvent, FaultKind, FaultMap, FaultSpec};
pub use inject::{
    inject_codes, inject_f32, inject_packed, inject_packed_bits, inject_packed_with,
    inject_protected_bits,
};
pub use pe::PeFaultPlan;
pub use protected::{ProtectedCodes, ScrubReport};
pub use rng::SplitMix64;
