//! The posit `<n, es>` tapered-precision format (Gustafson & Yonemoto,
//! "Beating Floating Point at Its Own Game").
//!
//! Posits spend a variable number of *regime* bits before the exponent and
//! fraction, giving high precision near ±1 and huge dynamic range at the
//! extremes. Per the posit standard: negative values are the two's
//! complement of the bit pattern, there is exactly one zero and one NaR,
//! and rounding never underflows a non-zero value to zero nor overflows to
//! NaR (it saturates at `minpos` / `maxpos`).
//!
//! The paper uses posit as its strongest non-adaptive baseline, with
//! `es = 1` at word sizes ≥ 5 bits and `es = 0` at 4 bits.

use std::sync::{Arc, OnceLock};

use crate::decode::{DecodePolicy, DecodeStats};
use crate::error::FormatError;
use crate::format::NumberFormat;
use crate::util::exp2;

/// Posit `<n, es>` format descriptor with a shared rounding table.
///
/// # Examples
///
/// ```
/// use adaptivfloat::Posit;
///
/// # fn main() -> Result<(), adaptivfloat::FormatError> {
/// let p = Posit::new(8, 1)?;
/// assert_eq!(p.decode(0x40), 1.0); // 0b0100_0000 is 1.0 in any posit
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Posit {
    n: u32,
    es: u32,
    /// The value of every positive code, indexed by `code − 1`:
    /// positive posit codes are monotone in value, so this is also the
    /// ascending rounding table. One per geometry, shared process-wide.
    table: Arc<[f64]>,
}

impl PartialEq for Posit {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.es == other.es
    }
}

impl Eq for Posit {}

impl Posit {
    /// Create a posit `<n, es>` format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidBits`] unless `3 ≤ n ≤ 16` (the
    /// rounding table enumerates all `2^n` codes) and `es ≤ 4`.
    pub fn new(n: u32, es: u32) -> Result<Self, FormatError> {
        if !(3..=16).contains(&n) {
            return Err(FormatError::InvalidBits {
                n,
                e: es,
                reason: "posit word size must be between 3 and 16 bits",
            });
        }
        if es > 4 {
            return Err(FormatError::InvalidBits {
                n,
                e: es,
                reason: "es must be at most 4",
            });
        }
        // One slot per supported geometry: n ∈ 3..=16, es ∈ 0..=4.
        static TABLES: [[OnceLock<Arc<[f64]>>; 5]; 14] =
            [const { [const { OnceLock::new() }; 5] }; 14];
        let table = TABLES[n as usize - 3][es as usize]
            .get_or_init(|| positive_values(n, es))
            .clone();
        Ok(Posit { n, es, table })
    }

    /// Word size in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Exponent field width `es`.
    pub fn es(&self) -> u32 {
        self.es
    }

    /// Smallest positive representable value, `2^(−(n−2)·2^es)`.
    pub fn minpos(&self) -> f64 {
        self.table[0]
    }

    /// Largest representable value, `2^((n−2)·2^es)`.
    pub fn maxpos(&self) -> f64 {
        self.table[self.table.len() - 1]
    }

    /// Decode an `n`-bit code. Code `0` is `0.0`; the NaR pattern
    /// (`1000…0`) decodes to NaN.
    pub fn decode(&self, code: u32) -> f32 {
        let mask = word_mask(self.n);
        let code = code & mask;
        if code == 0 {
            return 0.0;
        }
        if code == 1 << (self.n - 1) {
            return f32::NAN;
        }
        if code >> (self.n - 1) == 1 {
            let abs = (!code).wrapping_add(1) & mask;
            -(decode_raw(self.n, self.es, abs) as f32)
        } else {
            decode_raw(self.n, self.es, code) as f32
        }
    }

    /// Decode an `n`-bit code under a [`DecodePolicy`].
    ///
    /// Under [`DecodePolicy::Harden`] the NaR pattern — which a single
    /// sign-bit upset on a zero code produces — is repaired to `0.0` and
    /// counted as a non-finite detection instead of releasing NaN into
    /// the tensor. All other posit codes decode to finite in-range
    /// values and pass through unchanged.
    pub fn decode_with_policy(
        &self,
        code: u32,
        policy: DecodePolicy,
        stats: &mut DecodeStats,
    ) -> f32 {
        let v = self.decode(code);
        stats.guard(policy, self.maxpos() as f32, v)
    }

    /// Quantize one value: round to the nearest representable posit.
    /// Following the posit standard, non-zero magnitudes saturate at
    /// `minpos`/`maxpos` (no underflow to zero, no overflow to NaR);
    /// NaN maps to `0.0` for DNN-friendliness.
    pub fn quantize_value(&self, v: f32) -> f32 {
        let (q, _) = self.quantize_code(v);
        q
    }

    /// Quantize and return both the value and its `n`-bit code.
    pub fn quantize_code(&self, v: f32) -> (f32, u32) {
        if v.is_nan() || v == 0.0 {
            return (0.0, 0);
        }
        let sign_neg = v < 0.0;
        let a = v.abs() as f64;
        let (mag, code) = self.nearest_positive(a);
        if sign_neg {
            let mask = word_mask(self.n);
            (-(mag as f32), (!code).wrapping_add(1) & mask)
        } else {
            (mag as f32, code)
        }
    }

    /// Encode a value (quantizing first).
    pub fn encode(&self, v: f32) -> u32 {
        self.quantize_code(v).1
    }

    /// Nearest positive representable to `a > 0` (ties away from zero),
    /// with its code.
    fn nearest_positive(&self, a: f64) -> (f64, u32) {
        let t = &self.table;
        let i = match t.binary_search_by(|probe| probe.partial_cmp(&a).expect("finite")) {
            Ok(i) => i,
            Err(0) => 0,                     // below minpos: saturate up
            Err(i) if i == t.len() => i - 1, // above maxpos: saturate down
            Err(i) if a - t[i - 1] < t[i] - a => i - 1,
            Err(i) => i,
        };
        (t[i], i as u32 + 1)
    }

    /// Enumerate all representable values (excluding NaR), sorted
    /// ascending: negatives, zero, positives.
    pub fn representable_values(&self) -> Vec<f32> {
        let mut vals: Vec<f32> = self.table.iter().rev().map(|&v| -(v as f32)).collect();
        vals.push(0.0);
        vals.extend(self.table.iter().map(|&v| v as f32));
        vals
    }
}

fn word_mask(n: u32) -> u32 {
    if n == 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// The values of the positive codes `1 ..= 2^(n−1) − 1`, in code order.
fn positive_values(n: u32, es: u32) -> Arc<[f64]> {
    (1u32..1 << (n - 1))
        .map(|code| decode_raw(n, es, code))
        .collect()
}

/// Decode a *positive* posit code (sign bit clear, code ≠ 0).
fn decode_raw(n: u32, es: u32, code: u32) -> f64 {
    debug_assert!(code != 0 && code >> (n - 1) == 0);
    // Parse the n−1 bits below the sign bit, MSB first.
    let body_bits = n - 1;
    let first = (code >> (body_bits - 1)) & 1;
    let mut pos = body_bits as i32 - 1;
    let mut run = 0u32;
    while pos >= 0 && ((code >> pos) & 1) == first {
        run += 1;
        pos -= 1;
    }
    pos -= 1; // skip the regime terminator (may step past the end)
    let k: i32 = if first == 1 {
        run as i32 - 1
    } else {
        -(run as i32)
    };
    // Exponent: the next `es` bits; missing (truncated) bits are zero.
    let mut e = 0u32;
    let mut got = 0u32;
    for _ in 0..es {
        if pos >= 0 {
            e = (e << 1) | ((code >> pos) & 1);
            pos -= 1;
            got += 1;
        }
    }
    e <<= es - got;
    // Fraction: whatever remains.
    let f_bits = (pos + 1).max(0) as u32;
    let frac_field = if f_bits == 0 {
        0
    } else {
        code & ((1u32 << f_bits) - 1)
    };
    let frac = frac_field as f64 / exp2(f_bits as i32);
    let scale = k * (1i32 << es) + e as i32;
    exp2(scale) * (1.0 + frac)
}

impl NumberFormat for Posit {
    fn name(&self) -> String {
        format!("Posit<{},{}>", self.n, self.es)
    }

    fn bits(&self) -> u32 {
        self.n
    }

    fn plan(&self, stats: &crate::plan::QuantStats) -> crate::plan::QuantPlan {
        use crate::lut::{self, LutKey};
        use crate::plan::{Backend, PlanParams, QuantPlan};
        let backend = if self.n <= lut::MAX_LUT_BITS && stats.len() >= lut::MIN_LUT_LEN {
            // Replaces the per-element f64 table walk with a codebook
            // lookup over f32 bit space (static per geometry).
            Backend::Lut(lut::cached(
                LutKey::Posit {
                    n: self.n,
                    es: self.es,
                },
                |v| self.quantize_value(v),
            ))
        } else {
            Backend::PositScalar(std::sync::Arc::new(self.clone()))
        };
        QuantPlan::new(self.n, PlanParams::Static, backend)
    }

    fn is_adaptive(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_values_posit8_1() {
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.decode(0x40), 1.0);
        assert_eq!(p.decode(0x41), 1.0625); // 1 + 1/16
        assert_eq!(p.decode(0x50), 2.0); // regime 10, e=1
        assert_eq!(p.decode(0x60), 4.0); // regime 110, e=0
        assert_eq!(p.decode(0x30), 0.5);
        // Two's complement negation.
        assert_eq!(p.decode(0xC0), -1.0);
        assert_eq!(p.decode(0), 0.0);
        assert!(p.decode(0x80).is_nan()); // NaR
    }

    #[test]
    fn extremes_match_standard_formulas() {
        // maxpos = 2^((n−2)·2^es), minpos = its reciprocal.
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.maxpos(), exp2(12));
        assert_eq!(p.minpos(), exp2(-12));
        let p4 = Posit::new(4, 0).unwrap();
        assert_eq!(p4.maxpos(), 4.0);
        assert_eq!(p4.minpos(), 0.25);
    }

    #[test]
    fn no_underflow_to_zero() {
        // The standard: non-zero values round to at least minpos.
        let p = Posit::new(8, 1).unwrap();
        let tiny = 1e-30f32;
        assert_eq!(p.quantize_value(tiny) as f64, p.minpos());
        assert_eq!(p.quantize_value(-tiny) as f64, -p.minpos());
        // But exact zero stays zero.
        assert_eq!(p.quantize_value(0.0), 0.0);
    }

    #[test]
    fn saturates_at_maxpos() {
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.quantize_value(1e30) as f64, p.maxpos());
        assert_eq!(p.quantize_value(f32::INFINITY) as f64, p.maxpos());
    }

    #[test]
    fn roundtrip_all_codes() {
        for (n, es) in [(4, 0), (5, 1), (6, 1), (8, 0), (8, 1), (8, 2)] {
            let p = Posit::new(n, es).unwrap();
            for code in 0..(1u32 << n) {
                if code == 1 << (n - 1) {
                    continue; // NaR
                }
                let v = p.decode(code);
                let (q, recode) = p.quantize_code(v);
                assert_eq!(q, v, "n={n} es={es} code={code:#x} not fixed");
                assert_eq!(recode, code, "n={n} es={es} code={code:#x}");
            }
        }
    }

    #[test]
    fn tapered_precision_is_densest_near_one() {
        // The spacing of representable posits around 1.0 must be finer
        // than around maxpos/4.
        let p = Posit::new(8, 1).unwrap();
        let vals = p.representable_values();
        let gap_at = |target: f32| {
            let i = vals
                .iter()
                .position(|&v| v >= target)
                .expect("target in range");
            vals[i + 1] - vals[i]
        };
        assert!(gap_at(1.0) < gap_at(100.0));
    }

    #[test]
    fn quantization_is_nearest_within_range() {
        let p = Posit::new(6, 1).unwrap();
        let vals = p.representable_values();
        let mut x = 0.01f32;
        while x < 50.0 {
            let q = p.quantize_value(x);
            let best = vals
                .iter()
                .map(|&g| (x - g).abs())
                .fold(f32::INFINITY, f32::min);
            assert!(
                (x - q).abs() <= best * (1.0 + 1e-5) + 1e-9,
                "x={x} q={q} best={best}"
            );
            x *= 1.07;
        }
    }

    #[test]
    fn representable_count() {
        // 2^n codes minus NaR, ±0 are a single zero code → 2^n − 1 values.
        let p = Posit::new(6, 1).unwrap();
        assert_eq!(p.representable_values().len(), 63);
    }

    #[test]
    fn positive_codes_are_strictly_monotone_in_every_geometry() {
        for n in 3..=16 {
            for es in 0..=4 {
                let values = positive_values(n, es);
                assert_eq!(values.len(), (1 << (n - 1)) - 1);
                if let Some(w) = values.windows(2).find(|w| w[0] >= w[1]) {
                    panic!("posit<{n},{es}>: {} is not below {}", w[0], w[1]);
                }
            }
        }
        // Every instance of a geometry holds the same table.
        let (a, b) = (Posit::new(8, 1).unwrap(), Posit::new(8, 1).unwrap());
        assert!(Arc::ptr_eq(&a.table, &b.table));
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(Posit::new(2, 0).is_err());
        assert!(Posit::new(17, 1).is_err());
        assert!(Posit::new(8, 5).is_err());
    }

    #[test]
    fn nan_maps_to_zero() {
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.quantize_value(f32::NAN), 0.0);
    }
}
