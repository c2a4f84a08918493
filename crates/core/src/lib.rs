//! # AdaptivFloat — adaptive floating-point encodings for deep learning
//!
//! This crate implements the number formats studied in *"Algorithm-Hardware
//! Co-Design of Adaptive Floating-Point Encodings for Resilient Deep Learning
//! Inference"* (Tambe et al., DAC 2020):
//!
//! * [`AdaptivFloat`] — the paper's contribution: a float-like `<n, e>`
//!   format with **no denormals**, the all-zero encoding reassigned from
//!   ±minimum to ±0, and a per-tensor exponent bias chosen from the tensor's
//!   maximum absolute value (Algorithm 1 of the paper).
//! * [`IeeeLikeFloat`] — a non-adaptive IEEE-754-style `<n, e>` miniature
//!   float with subnormals and round-to-nearest-even.
//! * [`Posit`] — the posit `<n, es>` tapered-precision format.
//! * [`BlockFloat`] — block floating-point with a shared per-block exponent.
//! * [`Uniform`] — symmetric uniform (integer) quantization with an FP scale.
//! * [`FixedPoint`] — a classic Qm.f fixed-point baseline.
//!
//! All formats implement the [`NumberFormat`] trait so they can be swept
//! uniformly in experiments, and each exposes a bit-accurate codec
//! (encode a value to its bit pattern, decode a bit pattern back) so the
//! hardware model in `af-hw` can be driven bit-for-bit. A
//! [`StorageCodec`] freezes one [`FormatKind`] at its paper field split
//! together with a tensor's side state (exponent bias, shared exponent
//! or scale): the one description of how a stored layer's values become
//! codes.
//!
//! ## Quickstart
//!
//! ```
//! use adaptivfloat::{AdaptivFloat, NumberFormat};
//!
//! # fn main() -> Result<(), adaptivfloat::FormatError> {
//! // An 8-bit AdaptivFloat with 3 exponent bits (the paper's sweet spot).
//! let fmt = AdaptivFloat::new(8, 3)?;
//! let weights = [0.02_f32, -1.4, 3.1, -0.3, 0.0];
//! let q = fmt.quantize_slice(&weights);
//! assert_eq!(q.len(), weights.len());
//! // Zero is exactly representable — the paper's custom zero assignment.
//! assert_eq!(q[4], 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adaptiv;
pub mod bfp;
pub mod block_adaptiv;
pub mod code_index;
pub mod codec;
pub mod decode;
pub mod error;
pub mod fixed;
pub mod format;
pub mod ieee_like;
pub mod kernels;
pub mod lut;
pub mod metrics;
pub mod pack;
pub mod par;
pub mod plan;
pub mod posit;
pub mod search;
pub mod simd;
pub mod stats;
pub mod stochastic;
pub mod table;
pub mod uniform;
pub(crate) mod util;

pub use adaptiv::{AdaptivFloat, AdaptivParams, QuantizedTensor};
pub use bfp::BlockFloat;
pub use block_adaptiv::BlockAdaptivFloat;
pub use code_index::CodeIndex;
pub use codec::StorageCodec;
pub use decode::{DecodePolicy, DecodeStats};
pub use error::FormatError;
pub use fixed::FixedPoint;
pub use format::{FormatKind, NumberFormat};
pub use ieee_like::IeeeLikeFloat;
pub use metrics::{max_abs_error, mean_abs_error, rms_error, sqnr_db};
pub use pack::{BitPacker, PackedCodes};
pub use plan::{PlanParams, QuantPlan, QuantStats};
pub use posit::Posit;
pub use simd::{Isa, SimdReport};
pub use stats::TensorStats;
pub use stochastic::StochasticRounder;
pub use uniform::Uniform;
