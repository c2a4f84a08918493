//! Internal numeric helpers shared by the format implementations.

/// Exact `2^k` as `f64`: assembled from its exponent field when the
/// result is normal, from libm's `exp2` otherwise.
pub(crate) fn exp2(k: i32) -> f64 {
    if (-1022..=1023).contains(&k) {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        (k as f64).exp2()
    }
}

/// Exact `floor(log2(|x|))` for finite non-zero `x`, via the IEEE-754 bit
/// layout of `f64`. Every non-zero finite `f32` widens to a *normal* `f64`,
/// so the fast path is exact for all inputs this crate sees.
pub(crate) fn floor_log2(x: f64) -> i32 {
    debug_assert!(x.is_finite() && x != 0.0);
    let bits = x.abs().to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // f64 subnormal: find the highest set mantissa bit.
        let mant = bits & ((1u64 << 52) - 1);
        -1023 - 52 + (63 - mant.leading_zeros() as i32) + 1
    } else {
        biased - 1023
    }
}

/// Encode a signed integer level as an `n`-bit two's-complement word
/// (`n ≤ 32`). Bits above `n` are cleared; the level is expected to fit,
/// but out-of-range inputs simply wrap, as hardware storage would.
pub(crate) fn to_twos_complement(level: i64, n: u32) -> u32 {
    let mask = if n >= 32 {
        u64::MAX >> 32
    } else {
        (1u64 << n) - 1
    };
    (level as u64 & mask) as u32
}

/// Decode an `n`-bit two's-complement word back to a signed level
/// (`n ≤ 32`). Bits above `n` are ignored.
pub(crate) fn from_twos_complement(code: u32, n: u32) -> i64 {
    let mask = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
    let code = code & mask;
    if n < 32 && (code >> (n - 1)) & 1 == 1 {
        code as i64 - (1i64 << n)
    } else if n == 32 {
        code as i32 as i64
    } else {
        code as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2_matches_libm_at_every_integer_exponent() {
        for k in -1100..=1100 {
            assert_eq!(exp2(k).to_bits(), (k as f64).exp2().to_bits(), "2^{k}");
        }
    }

    #[test]
    fn twos_complement_roundtrip() {
        for n in [2u32, 4, 8, 13, 16, 31, 32] {
            let hi = if n == 32 {
                i32::MAX as i64
            } else {
                (1i64 << (n - 1)) - 1
            };
            for level in [-(hi + 1), -hi, -1, 0, 1, hi] {
                let code = to_twos_complement(level, n);
                assert_eq!(from_twos_complement(code, n), level, "n={n} level={level}");
            }
        }
    }

    #[test]
    fn floor_log2_exact_powers() {
        for k in -60..=60 {
            assert_eq!(floor_log2(exp2(k)), k);
            // Just below a power of two belongs to the previous binade.
            let below = exp2(k) * (1.0 - 1e-12);
            assert_eq!(floor_log2(below), k - 1, "k={k}");
        }
    }

    #[test]
    fn floor_log2_subnormal_f64() {
        let tiny = f64::from_bits(1);
        assert_eq!(floor_log2(tiny), -1074);
    }
}
