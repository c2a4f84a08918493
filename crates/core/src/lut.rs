//! Direct-index codebooks for the enumerable formats at `n ≤ 8` bits.
//!
//! Once its per-tensor parameters are frozen, every format here maps an
//! `f32` onto one of at most `2^n` codes through a **monotone
//! piecewise-constant** function of the magnitude on each sign (round to
//! nearest on a fixed grid, plus saturation). A [`LutQuantizer`]
//! compiles that function — however expensive (`floor_log2`, `exp2`,
//! f64 division, posit table walks) — into a table answered per element
//! by one direct index, one compare and one load: the bucket
//! `|bits| >> shift` picks a slot holding one threshold and the
//! **codes** below and above it. The code is what a weight buffer
//! stores; a per-sign table of `2^n` values turns it into the quantized
//! value, so one lookup answers both.
//!
//! Exactness is guaranteed **by construction**: the switch points are
//! found by bisecting the scalar quantizer and encoder themselves over
//! the bit patterns of each sign half-axis (positive f32 bit patterns
//! order like their values, so a monotone function that agrees at both
//! ends of a bit interval is constant across it), and compared bit for
//! bit, so each format's zero-sign convention survives. The shift is the
//! largest that leaves at most one switch point per slot; the first and
//! last slots also take every smaller and larger magnitude, so the empty
//! extremes of a grid cost no slots. NaN inputs take one code and a
//! value per sign.
//!
//! Tables are cached process-wide, keyed by format geometry plus the
//! per-tensor parameter (AdaptivFloat's exponent bias, Uniform's scale,
//! BFP's shared exponent), and bounded by resident bytes.
//! `tests/lut_matches_analytic.rs` and `tests/lut_direct_index.rs` pin
//! them to the scalar paths bit for bit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Bit pattern of +∞ (and the f32 exponent mask).
const INF_BITS: u32 = 0x7f80_0000;
/// Magnitude mask (everything but the sign bit).
const ABS_MASK: u32 = 0x7fff_ffff;
/// The sign bit.
const SIGN_BIT: u32 = 0x8000_0000;
/// The quiet NaN probed for each sign's NaN code.
const NAN_BITS: [u32; 2] = [0x7fc0_0000, 0xffc0_0000];

/// Slices shorter than this skip the LUT: the per-call cache lookup
/// costs more than a handful of scalar quantizations.
pub const MIN_LUT_LEN: usize = 32;

/// Largest word size the LUT path covers (`2^8` codes).
pub const MAX_LUT_BITS: u32 = 8;

/// Resident bytes the cache may hold; it is emptied when a new table
/// would pass this. A table is 0.3–12 KB, so steady-state workloads stay
/// far below the cap.
pub const CACHE_BYTES: usize = 4 << 20;

/// One sign's step function over magnitudes `[0, INF_BITS]`: per
/// segment, its first magnitude, output value bits and code, ascending.
type Segments = Vec<(u32, u32, u32)>;

/// Bisect `f` (magnitude bits → (value bits, code)) over
/// `[0, INF_BITS]`. `f` must be monotone in the input value; the
/// interval `[lo, hi]` is taken as constant whenever `f(lo) == f(hi)`,
/// which monotonicity guarantees.
fn segments(f: &dyn Fn(u32) -> (u32, u32)) -> Segments {
    let key = |abs| {
        let (value, code) = f(abs);
        (u64::from(value) << 32) | u64::from(code)
    };
    let first = key(0);
    let mut starts = vec![(0u32, first)];
    let mut stack = vec![(0u32, INF_BITS, first, key(INF_BITS))];
    while let Some((lo, hi, flo, fhi)) = stack.pop() {
        if flo == fhi {
            continue;
        }
        if lo + 1 == hi {
            starts.push((hi, fhi));
            continue;
        }
        let mid = lo + (hi - lo) / 2;
        let fmid = key(mid);
        stack.push((lo, mid, flo, fmid));
        stack.push((mid, hi, fmid, fhi));
    }
    starts.sort_unstable();
    starts
        .into_iter()
        .map(|(t, k)| (t, (k >> 32) as u32, k as u32))
        .collect()
}

/// A compiled codebook: bit-identical to the scalar quantizer and
/// encoder it was built from, at a flat per-element cost.
#[derive(Debug)]
pub struct LutQuantizer {
    /// A magnitude's bucket is `abs >> shift`.
    pub(crate) shift: u32,
    /// The bucket before slot 1's: slot 0 takes it and every smaller one.
    pub(crate) base: u32,
    /// Slots per sign; the last takes its bucket and every larger one.
    pub(crate) len: u32,
    /// Per slot, positive sign first: the first magnitude that takes the
    /// slot's upper code (`ABS_MASK` when the slot holds no switch).
    pub(crate) thresholds: Vec<u32>,
    /// Per slot: the lower code | the upper code `<< 8`. One spare entry
    /// keeps a 4-byte gather at the last slot in bounds.
    pub(crate) codes: Vec<u16>,
    /// Output value bits of code `c` on sign `s` at `s << code_bits | c`;
    /// of a NaN input on sign `s` at `2 << code_bits | s`.
    pub(crate) values: Vec<u32>,
    /// Width of the codes.
    pub(crate) code_bits: u32,
    /// The code of a NaN input of either sign.
    pub(crate) nan_code: u32,
}

impl LutQuantizer {
    /// Compile an `n`-bit codec: `f` maps an input to its quantized value
    /// and its code, both monotone in the input on each sign. The
    /// closure is probed a few thousand times. `None` if a code is wider
    /// than `n` bits or means two different values on one sign, or if
    /// NaNs of the two signs encode differently.
    pub(crate) fn build_coded(n: u32, f: impl Fn(f32) -> (f32, u32)) -> Option<LutQuantizer> {
        let probe = |bits: u32| {
            let (value, code) = f(f32::from_bits(bits));
            (value.to_bits(), code)
        };
        let axes = [0, SIGN_BIT].map(|sign| segments(&|abs| probe(abs | sign)));
        LutQuantizer::assemble(n, axes, NAN_BITS.map(probe))
    }

    /// Compile any monotone scalar quantizer (no codec): each sign's
    /// distinct outputs, numbered in bit order, are its codes.
    ///
    /// # Panics
    ///
    /// Panics if one sign has more than 256 distinct outputs.
    pub fn build(quantize: impl Fn(f32) -> f32) -> LutQuantizer {
        let value = |bits: u32| quantize(f32::from_bits(bits)).to_bits();
        let mut axes = [0, SIGN_BIT].map(|sign| segments(&|abs| (value(abs | sign), 0)));
        for axis in axes.iter_mut() {
            let mut levels: Vec<u32> = axis.iter().map(|&(_, value, _)| value).collect();
            levels.sort_unstable();
            levels.dedup();
            for segment in axis.iter_mut() {
                segment.2 = levels.partition_point(|&l| l < segment.1) as u32;
            }
        }
        let nan = NAN_BITS.map(|bits| (value(bits), 0));
        LutQuantizer::assemble(MAX_LUT_BITS, axes, nan).expect("at most 256 outputs per sign")
    }

    /// Lay both signs' segments and NaN `(value, code)`s out as slots.
    fn assemble(code_bits: u32, axes: [Segments; 2], nan: [(u32, u32); 2]) -> Option<LutQuantizer> {
        // A code's value per sign: one code meaning two values on one
        // sign cannot be tabled. NaN inputs keep values of their own.
        let mut values = vec![None; 2 << code_bits];
        for (sign, axis) in axes.iter().enumerate() {
            for &(_, value, code) in axis {
                if code >> code_bits != 0 {
                    return None;
                }
                let slot = &mut values[sign << code_bits | code as usize];
                if *slot.get_or_insert(value) != value {
                    return None;
                }
            }
        }
        if nan[0].1 != nan[1].1 || nan[0].1 >> code_bits != 0 {
            return None;
        }
        values.extend(nan.map(|(value, _)| Some(value)));
        let mut switches: Vec<u32> = axes
            .iter()
            .flat_map(|axis| axis[1..].iter().map(|&(start, ..)| start))
            .collect();
        switches.sort_unstable();
        switches.dedup();
        // The largest shift that puts consecutive switches in different
        // buckets; slot 0 then holds the first switch, the last slot the
        // last one, and every slot between them one bucket.
        let shift = switches
            .windows(2)
            .map(|w| 31 - (w[0] ^ w[1]).leading_zeros())
            .min()
            .unwrap_or(31);
        let k = switches.len();
        let (base, last) = if k < 2 {
            (0, 0)
        } else {
            let bucket = |i: usize| switches[i] >> shift;
            (bucket(1) - 1, bucket(k.max(3) - 2) + 1)
        };
        let len = last - base + 1;
        // Slot `j` begins at its bucket's first magnitude; slot 0 at 0.
        let start = |j: u32| (u64::from(base + j) << shift) * u64::from(j != 0);
        let mut thresholds = Vec::with_capacity(2 * len as usize);
        let mut codes = Vec::with_capacity(2 * len as usize + 1);
        for axis in &axes {
            for j in 0..len {
                let (lo, hi) = (start(j), if j + 1 == len { u64::MAX } else { start(j + 1) });
                let at = axis.partition_point(|&(t, ..)| u64::from(t) <= lo) - 1;
                let below = axis[at].2;
                let (threshold, above) = match axis.get(at + 1) {
                    Some(&(t, _, code)) if u64::from(t) < hi => (t, code),
                    _ => (ABS_MASK, below),
                };
                debug_assert!(axis.get(at + 2).is_none_or(|&(t, ..)| u64::from(t) >= hi));
                thresholds.push(threshold);
                codes.push(below as u16 | (above as u16) << 8);
            }
        }
        codes.push(0);
        Some(LutQuantizer {
            shift,
            base,
            len,
            thresholds,
            codes,
            values: values.into_iter().map(|v| v.unwrap_or(0)).collect(),
            code_bits,
            nan_code: nan[0].1,
        })
    }

    /// The code (`CODES`) or the quantized value's bits of the input
    /// with bit pattern `bits`.
    #[inline]
    pub(crate) fn lookup<const CODES: bool>(&self, bits: u32) -> u32 {
        let abs = bits & ABS_MASK;
        let negative = bits >> 31;
        if abs > INF_BITS {
            return match CODES {
                true => self.nan_code,
                false => self.values[((2 << self.code_bits) | negative) as usize],
            };
        }
        let bucket = (abs >> self.shift).saturating_sub(self.base);
        let slot = (bucket.min(self.len - 1) + negative * self.len) as usize;
        let pair = u32::from(self.codes[slot]);
        let code = (pair >> (8 * u32::from(abs >= self.thresholds[slot]))) & 0xff;
        match CODES {
            true => code,
            false => self.values[(negative << self.code_bits | code) as usize],
        }
    }

    /// The code of one value.
    #[inline]
    pub fn encode_one(&self, v: f32) -> u32 {
        self.lookup::<true>(v.to_bits())
    }

    /// Quantize one value through the codebook.
    #[inline]
    pub fn quantize_one(&self, v: f32) -> f32 {
        f32::from_bits(self.lookup::<false>(v.to_bits()))
    }

    /// Quantize `src` into `dst`, gathering from the table on AVX2 hosts
    /// (see [`crate::simd`]). Bit-identical to
    /// [`quantize_into_scalar`](Self::quantize_into_scalar) always.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn quantize_into(&self, src: &[f32], dst: &mut [f32]) {
        crate::simd::quantize_lut(self, src, dst);
    }

    /// Quantize `src` into `dst` one element at a time — the vector
    /// path's reference twin, exposed so benchmarks and the bit-identity
    /// suites can compare both legs in one process.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn quantize_into_scalar(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "slice length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = self.quantize_one(s);
        }
    }

    /// Quantize `data` where it sits (SIMD-dispatched like
    /// [`quantize_into`](Self::quantize_into)).
    pub fn quantize_in_place(&self, data: &mut [f32]) {
        crate::simd::quantize_lut_in_place(self, data);
    }

    /// Quantize a slice into a fresh vector (parallel for large slices).
    pub fn quantize_slice(&self, data: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; data.len()];
        crate::par::par_zip_into(data, &mut out, |src, dst| self.quantize_into(src, dst));
        out
    }

    /// The code of every value of `src`, on the calling thread
    /// (SIMD-dispatched like [`quantize_into`](Self::quantize_into)).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn encode_into(&self, src: &[f32], codes: &mut [u32]) {
        crate::simd::encode_lut(self, src, codes);
    }

    /// Every magnitude (as f32 bits) where a slot begins or a slot's
    /// threshold lies: the inputs where a lookup could go wrong, for
    /// tests that probe the table's edges.
    pub fn edges(&self) -> Vec<u32> {
        let starts = (1..self.len).map(|j| (self.base + j) << self.shift);
        let mut edges: Vec<u32> = starts
            .chain(self.thresholds.iter().copied().filter(|&t| t != ABS_MASK))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Heap and inline bytes this table holds.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + 4 * self.thresholds.len()
            + 2 * self.codes.len()
            + 4 * self.values.len()
    }
}

/// Cache key: format geometry plus any per-tensor scaling parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LutKey {
    /// `AdaptivFloat<n, e>` at one exponent bias.
    Adaptiv {
        /// Word size.
        n: u32,
        /// Exponent bits.
        e: u32,
        /// The per-tensor exponent bias.
        exp_bias: i32,
    },
    /// `IeeeLikeFloat<n, e>` — static grid.
    Ieee {
        /// Word size.
        n: u32,
        /// Exponent bits.
        e: u32,
    },
    /// `Posit<n, es>` — static grid.
    Posit {
        /// Word size.
        n: u32,
        /// Exponent field width.
        es: u32,
    },
    /// `FixedPoint` Qi.f — static grid.
    Fixed {
        /// Word size.
        n: u32,
        /// Integer bits.
        int_bits: u32,
    },
    /// `Uniform<n>` at one derived scale.
    Uniform {
        /// Word size.
        n: u32,
        /// `scale.to_bits()` of the per-tensor f64 scale.
        scale_bits: u64,
    },
    /// `BlockFloat<n>` at one shared exponent.
    Bfp {
        /// Word size.
        n: u32,
        /// The block's shared exponent.
        exp: i32,
    },
}

/// The cached tables and the bytes they hold.
#[derive(Debug, Default)]
struct Cache {
    tables: HashMap<LutKey, Arc<LutQuantizer>>,
    bytes: usize,
}

fn cache() -> &'static RwLock<Cache> {
    static CACHE: OnceLock<RwLock<Cache>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(Cache::default()))
}

/// Number of times the cache's write lock has been taken (misses). A
/// warmed serve path must leave this untouched — see
/// `tests/lut_prewarm.rs`.
static WRITE_ACQUISITIONS: AtomicUsize = AtomicUsize::new(0);

/// How many times the cache write lock has been acquired since process
/// start. Read-path hits never touch the write lock, so a serving loop
/// over prewarmed codebooks keeps this constant while it runs.
pub fn write_lock_acquisitions() -> usize {
    WRITE_ACQUISITIONS.load(Ordering::SeqCst)
}

/// Bytes the cached tables hold now (at most [`CACHE_BYTES`]).
pub fn resident_bytes() -> usize {
    cache().read().expect("lut cache poisoned").bytes
}

/// Look up an already-built codebook without taking the write lock.
fn lookup(key: &LutKey) -> Option<Arc<LutQuantizer>> {
    let cache = cache().read().expect("lut cache poisoned");
    cache.tables.get(key).map(Arc::clone)
}

/// Insert `built` under `key` (keeping any table that raced us in),
/// emptying the cache first if `built` would push it past
/// [`CACHE_BYTES`].
fn insert(key: LutKey, built: Arc<LutQuantizer>) -> Arc<LutQuantizer> {
    WRITE_ACQUISITIONS.fetch_add(1, Ordering::SeqCst);
    let mut cache = cache().write().expect("lut cache poisoned");
    if let Some(hit) = cache.tables.get(&key) {
        return Arc::clone(hit);
    }
    let bytes = built.resident_bytes();
    if cache.bytes + bytes > CACHE_BYTES {
        cache.tables.clear();
        cache.bytes = 0;
    }
    cache.bytes += bytes;
    cache.tables.insert(key, Arc::clone(&built));
    built
}

/// The codebook of the `n`-bit codec `f` (see
/// [`LutQuantizer::build_coded`]), cached under `key`; `None` above
/// [`MAX_LUT_BITS`] or when `f` cannot be tabled.
///
/// Hits take only the read lock; misses build the table *outside* any
/// lock (two racing builders both build, one insertion wins) and then
/// take the write lock briefly to publish it.
pub(crate) fn codebook(
    key: LutKey,
    n: u32,
    f: impl Fn(f32) -> (f32, u32),
) -> Option<Arc<LutQuantizer>> {
    if n > MAX_LUT_BITS {
        return None;
    }
    match lookup(&key) {
        Some(hit) => Some(hit),
        None => LutQuantizer::build_coded(n, f).map(|built| insert(key, Arc::new(built))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round to `step`, clamp at `±max`; NaN → `nan`.
    fn stepper(step: f64, max: f64, nan: f32) -> impl Fn(f32) -> f32 {
        move |v: f32| {
            if v.is_nan() {
                return nan;
            }
            ((v as f64 / step).round() * step).clamp(-max, max) as f32
        }
    }

    fn check_everywhere(lut: &LutQuantizer, q: &dyn Fn(f32) -> f32) {
        let check = |bits: u32| {
            let v = f32::from_bits(bits);
            assert_eq!(
                lut.quantize_one(v).to_bits(),
                q(v).to_bits(),
                "bits={bits:#010x}"
            );
        };
        for bits in [
            0u32,
            SIGN_BIT,
            1,
            SIGN_BIT | 1,
            0x007f_ffff,
            INF_BITS - 1,
            INF_BITS,
            INF_BITS + 1,
            0x7fc0_0000,
            ABS_MASK,
            INF_BITS | SIGN_BIT,
            0xffc0_0000,
            u32::MAX,
        ] {
            check(bits);
        }
        let mut bits = 0u32;
        while bits < INF_BITS {
            check(bits);
            check(bits | SIGN_BIT);
            bits = bits.wrapping_add(0x0001_7f39);
        }
        for edge in lut.edges() {
            for d in [edge - 1, edge, edge + 1] {
                check(d);
                check(d | SIGN_BIT);
            }
        }
    }

    #[test]
    fn compiles_a_step_function_exactly() {
        let q = stepper(1.0, 3.0, 0.0);
        let lut = LutQuantizer::build(&q);
        let mut x = -10.0f32;
        while x < 10.0 {
            assert_eq!(lut.quantize_one(x).to_bits(), q(x).to_bits(), "x={x}");
            x += 0.01;
        }
        check_everywhere(&lut, &q);
    }

    #[test]
    fn asymmetric_outputs_and_nan_take_their_own_codes() {
        // Clamps differ per sign and NaN has an output of its own, so
        // the two signs' slots and NaN codes must stay apart.
        let q = |v: f32| {
            if v.is_nan() {
                return -1.0;
            }
            (((v as f64) * 4.0).round() / 4.0).clamp(-2.0, 3.0) as f32
        };
        let lut = LutQuantizer::build(q);
        check_everywhere(&lut, &q);
    }

    #[test]
    fn every_slot_holds_at_most_one_switch() {
        // A grid with widely spaced switches at both extremes (a posit-
        // like "never round to zero") still indexes in few slots.
        let q = |v: f32| {
            let a = v.abs();
            let m = if v.is_nan() || a == 0.0 {
                0.0
            } else {
                (a.log2().round().clamp(-12.0, 12.0)).exp2()
            };
            m.copysign(v)
        };
        let lut = LutQuantizer::build(q);
        assert!(lut.len < 64, "{} slots per sign", lut.len);
        check_everywhere(&lut, &q);
    }

    #[test]
    fn codes_follow_the_codec() {
        // Sign-magnitude codes for a 4-level grid; NaN takes the unused
        // negative-zero pattern, 4.
        let f = |v: f32| {
            if v.is_nan() {
                return (0.0, 4);
            }
            let level = (v.abs() as f64).round().min(3.0) as f32;
            let negative = v.is_sign_negative() && level > 0.0;
            let value = if negative { -level } else { level };
            (value, level as u32 | u32::from(negative) << 2)
        };
        let lut = LutQuantizer::build_coded(3, f).expect("tableable");
        for v in [
            0.0f32,
            -0.0,
            0.4,
            0.6,
            -1.7,
            2.49,
            -2.5,
            9.0,
            f32::NAN,
            -f32::NAN,
        ] {
            assert_eq!(lut.encode_one(v), f(v).1, "{v}");
            assert_eq!(lut.quantize_one(v).to_bits(), f(v).0.to_bits(), "{v}");
        }
        // A code meaning two values on one sign cannot be tabled.
        let ambiguous = |v: f32| ((v as f64).round().clamp(-1.0, 1.0) as f32, 0);
        assert!(LutQuantizer::build_coded(3, ambiguous).is_none());
    }

    #[test]
    fn preserves_zero_sign_behavior() {
        let q = stepper(0.25, 2.0, 0.0);
        assert_eq!(q(-0.1).to_bits(), (-0.0f32).to_bits());
        let lut = LutQuantizer::build(q);
        assert_eq!(lut.quantize_one(-0.1).to_bits(), (-0.0f32).to_bits());
        assert_eq!(lut.quantize_one(0.1).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn cache_hits() {
        let key = LutKey::Fixed { n: 6, int_bits: 2 };
        let fmt = crate::FixedPoint::new(6, 2).unwrap();
        let a = codebook(key, 6, |v| (fmt.quantize_value(v), fmt.encode(v))).unwrap();
        let b = codebook(key, 6, |_| unreachable!("second call must hit the cache")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(codebook(key, 9, |_| unreachable!("too wide")).is_none());
    }
}
