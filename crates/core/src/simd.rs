//! Runtime-dispatched SIMD kernels (AVX2 / SSE4.1) for the hot loops.
//!
//! Every vector path here is **bit-identical** to the scalar kernel it
//! accelerates — the dispatch is a pure speed choice, never a numerics
//! choice — and every entry point falls back to the scalar twin when the
//! host lacks the instruction set or when `AF_FORCE_SCALAR` is set:
//!
//! * [`FastQuantizer`] quantization: the scalar round/clamp decision tree
//!   becomes a branch-free vector expression. The carry case (mantissa
//!   rounding up to 2.0) is absorbed algebraically — for main-range
//!   values the result is `sign | ((abs & EXP_MASK) + (q << shift) −
//!   2^23)` whether or not the significand carried, because a carry makes
//!   `q << shift` equal `2^24` and the `− 2^23` then lands exactly one
//!   exponent step up. The four special regions (underflow, promote to
//!   `value_min`, clamp to `value_max`, NaN) become blends on signed
//!   32-bit compares, which are safe because every magnitude pattern and
//!   threshold is ≤ `0x7fff_ffff` (non-negative as `i32`).
//! * LUT codebook gather: the two per-sign threshold axes are fused into
//!   one table over a sign-folded *key space* (`key = bits ^ ((bits >>ₐ
//!   31) | 0x8000_0000)` orders all f32 patterns, NaNs included, as plain
//!   unsigned integers), searched with a branchless binary search whose
//!   probes are `vpgatherdd` gathers. Requires AVX2 (gathers); SSE4.1
//!   hosts use the scalar axis walk.
//! * Fused max-abs/non-finite scan, `PackedCodes` word pack/unpack, the
//!   packed-GEMM decode primitives (a codebook table lookup per code,
//!   [`decode_table_u8`] and [`decode_table_u4`], which know no format's
//!   field layout and so decode any 8- or 4-bit codebook exactly), and
//!   the register-blocked microkernel both GEMMs run ([`gemm_tile`]:
//!   multiply **then** add per element, never an FMA, so vector and
//!   scalar rounding agree).
//!
//! The active ISA is detected once per process ([`active`]) and reported
//! by [`report`] so benchmark snapshots can stamp the capability that
//! produced them. Setting the `AF_FORCE_SCALAR` environment variable to
//! anything but `0`/empty pins every dispatch to the scalar twins — the
//! escape hatch CI uses to run the bit-identity suites on both legs.

use std::sync::OnceLock;

use crate::kernels::FastQuantizer;
use crate::lut::LutQuantizer;

/// The instruction set a dispatched kernel will use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// 8-lane f32/i32 vectors (`std::arch` AVX2, includes gathers).
    Avx2,
    /// 4-lane f32/i32 vectors (`std::arch` SSE4.1; no gathers, so the
    /// LUT and decode paths fall back to scalar).
    Sse41,
    /// Plain scalar loops (non-x86 hosts, pre-SSE4.1 CPUs, or
    /// `AF_FORCE_SCALAR`).
    Scalar,
}

impl Isa {
    /// Lower-case label for reports and JSON (`"avx2"`, `"sse4.1"`,
    /// `"scalar"`).
    pub fn label(self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Sse41 => "sse4.1",
            Isa::Scalar => "scalar",
        }
    }

    /// f32 lanes per vector register (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            Isa::Avx2 => 8,
            Isa::Sse41 => 4,
            Isa::Scalar => 1,
        }
    }
}

/// Whether `AF_FORCE_SCALAR` pinned the dispatch to scalar (read once).
pub fn forced_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("AF_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}

/// The ISA every dispatched kernel in this process uses, detected once:
/// the widest of AVX2 / SSE4.1 the host offers, unless `AF_FORCE_SCALAR`
/// pins it to [`Isa::Scalar`].
pub fn active() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if forced_scalar() {
            return Isa::Scalar;
        }
        detect()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Isa {
    if is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else if is_x86_feature_detected!("sse4.1") {
        Isa::Sse41
    } else {
        Isa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Isa {
    Isa::Scalar
}

/// Capability snapshot of the SIMD dispatch, stamped into `BENCH_*.json`
/// so perf trajectories stay comparable across hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdReport {
    /// The ISA dispatched kernels run on.
    pub isa: Isa,
    /// f32 lanes per vector op on that ISA.
    pub lanes: usize,
    /// Whether `AF_FORCE_SCALAR` overrode detection.
    pub forced_scalar: bool,
    /// Host supports AVX2 (regardless of the override).
    pub avx2_available: bool,
    /// Host supports SSE4.1 (regardless of the override).
    pub sse41_available: bool,
}

/// The process-wide capability report (see [`SimdReport`]).
pub fn report() -> SimdReport {
    let detected = detect();
    SimdReport {
        isa: active(),
        lanes: active().lanes(),
        forced_scalar: forced_scalar(),
        avx2_available: detected == Isa::Avx2,
        sse41_available: matches!(detected, Isa::Avx2 | Isa::Sse41),
    }
}

impl SimdReport {
    /// Render as a one-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"isa\":\"{}\",\"lanes\":{},\"forced_scalar\":{},\
             \"avx2_available\":{},\"sse41_available\":{}}}",
            self.isa.label(),
            self.lanes,
            self.forced_scalar,
            self.avx2_available,
            self.sse41_available
        )
    }
}

// ---------------------------------------------------------------------
// FastQuantizer quantization
// ---------------------------------------------------------------------

/// Quantize `src` into `dst` (same length) through `fq`, vectorized when
/// the host allows. Bit-identical to `fq.quantize_one` per element.
pub(crate) fn quantize_fast(fq: &FastQuantizer, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: `active()` returned Avx2, so the host supports the
            // avx2 target feature; pointers cover `len` valid f32s.
            x86::quantize_avx2(fq, src.as_ptr(), dst.as_mut_ptr(), src.len());
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse41 => unsafe {
            // SAFETY: as above, with sse4.1 detected.
            x86::quantize_sse41(fq, src.as_ptr(), dst.as_mut_ptr(), src.len());
        },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = fq.quantize_one(s);
            }
        }
    }
}

/// In-place variant of [`quantize_fast`].
pub(crate) fn quantize_fast_in_place(fq: &FastQuantizer, data: &mut [f32]) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; reading and writing the same buffer
            // is fine because each vector load completes before the
            // store to the same addresses.
            x86::quantize_avx2(fq, data.as_ptr(), data.as_mut_ptr(), data.len());
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse41 => unsafe {
            // SAFETY: as above, with sse4.1 detected.
            x86::quantize_sse41(fq, data.as_ptr(), data.as_mut_ptr(), data.len());
        },
        _ => {
            for v in data.iter_mut() {
                *v = fq.quantize_one(*v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fused max-abs / first-non-finite scan
// ---------------------------------------------------------------------

/// One pass over `data`: the maximum finite magnitude as an f32 bit
/// pattern (0 when empty/all-zero/all-non-finite) and the index of the
/// first non-finite element. The canonical scan behind both
/// `kernels::max_abs_bits` and `QuantStats::from_slice`.
pub fn scan_abs(data: &[f32]) -> (u32, Option<usize>) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; the slice is read-only.
            x86::scan_avx2(data)
        },
        _ => scan_abs_scalar(data),
    }
}

/// Scalar twin of [`scan_abs`] (also the tail loop of the vector path).
pub fn scan_abs_scalar(data: &[f32]) -> (u32, Option<usize>) {
    scan_tail(data, 0, 0, None)
}

/// Fold the scalar scan over `data[start..]` with running state.
fn scan_tail(
    data: &[f32],
    start: usize,
    mut max: u32,
    mut first_non_finite: Option<usize>,
) -> (u32, Option<usize>) {
    const EXP_MASK: u32 = 0x7f80_0000;
    const ABS_MASK: u32 = 0x7fff_ffff;
    for (i, &v) in data.iter().enumerate().skip(start) {
        let abs = v.to_bits() & ABS_MASK;
        if abs >= EXP_MASK {
            if first_non_finite.is_none() {
                first_non_finite = Some(i);
            }
        } else if abs > max {
            max = abs;
        }
    }
    (max, first_non_finite)
}

// ---------------------------------------------------------------------
// LUT codebook gather
// ---------------------------------------------------------------------

/// Quantize `src` into `dst` through `lut`'s codebook, using the fused
/// key-space table with gathered binary search on AVX2 and the scalar
/// per-sign axis walk otherwise. Bit-identical to `lut.quantize_one`.
pub(crate) fn quantize_lut(lut: &LutQuantizer, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; the combined table's invariants
            // (power-of-two threshold count, values one longer) are
            // established at build time in `lut.rs`.
            x86::lut_avx2(lut, src.as_ptr(), dst.as_mut_ptr(), src.len());
        },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = lut.quantize_one(s);
            }
        }
    }
}

/// In-place variant of [`quantize_lut`].
pub(crate) fn quantize_lut_in_place(lut: &LutQuantizer, data: &mut [f32]) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: as in `quantize_lut`; same-buffer load/store is
            // ordered per chunk.
            x86::lut_avx2(lut, data.as_ptr(), data.as_mut_ptr(), data.len());
        },
        _ => {
            for v in data.iter_mut() {
                *v = lut.quantize_one(*v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// GEMM primitives
// ---------------------------------------------------------------------

/// The GEMM microkernel both the dense and the packed GEMM run: for a
/// `rows × depth` block of `a` (row stride `lda`), a `depth × width`
/// block of `b` (row stride `ldb`) and a `rows × width` block of `c`
/// (row stride `ldc`), `c[i][j] += a[i][p] · b[p][j]` for `p` ascending.
///
/// Every output element sees exactly the operation sequence of the
/// naive loop: its accumulator starts at `c[i][j]`, and each step is a
/// separate multiply `a · b` then an add with the accumulator as the
/// first operand — never an FMA, whose single rounding would differ.
/// Register blocking only changes which elements are in flight
/// together, so the AVX2 kernel (4×16 tiles, single rows in 64- then
/// 8-wide strips, scalar tail) is bit-identical to the portable loop
/// every other host, and `AF_FORCE_SCALAR`, runs.
///
/// # Panics
///
/// Panics if a stride is shorter than its row, or a slice is too short
/// for the block it holds.
pub fn gemm_tile(
    [rows, depth, width]: [usize; 3],
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    if rows == 0 || depth == 0 || width == 0 {
        return;
    }
    assert!(
        lda >= depth && ldb >= width && ldc >= width,
        "stride shorter than row"
    );
    assert!(
        a.len() >= (rows - 1) * lda + depth,
        "lhs block out of range"
    );
    assert!(
        b.len() >= (depth - 1) * ldb + width,
        "rhs block out of range"
    );
    assert!(
        c.len() >= (rows - 1) * ldc + width,
        "output block out of range"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; the asserts above keep every row
            // of every block inside its slice, and `c` is a distinct
            // `&mut` borrow, so it aliases neither input.
            x86::gemm_tile_avx2(
                [rows, depth, width],
                a.as_ptr(),
                lda,
                b.as_ptr(),
                ldb,
                c.as_mut_ptr(),
                ldc,
            );
        },
        _ => {
            for i in 0..rows {
                let c_row = &mut c[i * ldc..i * ldc + width];
                for (p, &av) in a[i * lda..i * lda + depth].iter().enumerate() {
                    for (cv, &bv) in c_row.iter_mut().zip(&b[p * ldb..p * ldb + width]) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// PackedCodes word pack/unpack (8-bit codes, 8 per u64 word)
// ---------------------------------------------------------------------

/// Pack the low bytes of `codes` into `u64` words (8 codes per word,
/// LSB-first — `PackedCodes`' layout for `width == 8`), appending to
/// `words`. Consumes `codes.len() & !7` codes and returns that count;
/// the caller pushes any tail through the bit-cursor path.
pub fn pack_u8_words(codes: &[u32], words: &mut Vec<u64>) -> usize {
    let full = codes.len() & !7;
    words.reserve(full / 8);
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; each iteration reads 8 in-bounds u32s.
            x86::pack_u8_words_avx2(&codes[..full], words);
        },
        _ => {
            for chunk in codes[..full].chunks_exact(8) {
                let mut w = 0u64;
                for (i, &c) in chunk.iter().enumerate() {
                    w |= ((c & 0xff) as u64) << (8 * i);
                }
                words.push(w);
            }
        }
    }
    full
}

/// Unpack `u64` words holding 8-bit codes (8 per word, LSB-first) into
/// `dst`. `words` must hold at least `dst.len()` codes.
///
/// # Panics
///
/// Panics if `words` holds fewer codes than `dst` expects.
pub fn unpack_u8_words(words: &[u64], dst: &mut [u32]) {
    assert!(words.len() * 8 >= dst.len(), "not enough packed words");
    let full = dst.len() & !7;
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; `full/8 ≤ words.len()` words are
            // read and `full` u32s written in bounds.
            x86::unpack_u8_words_avx2(words, dst.as_mut_ptr(), full);
        },
        _ => {
            for (chunk, &w) in dst[..full].chunks_exact_mut(8).zip(words) {
                for (i, d) in chunk.iter_mut().enumerate() {
                    *d = ((w >> (8 * i)) & 0xff) as u32;
                }
            }
        }
    }
    if full < dst.len() {
        let w = words[full / 8];
        for (i, d) in dst[full..].iter_mut().enumerate() {
            *d = ((w >> (8 * i)) & 0xff) as u32;
        }
    }
}

// ---------------------------------------------------------------------
// Packed-GEMM decode primitives (codebook table lookups)
// ---------------------------------------------------------------------

/// Decode one-byte-per-code codes into `dst` through a 256-entry
/// codebook: `dst[i] = table[codes[i]]`, bit for bit, with `vpgatherdd`
/// gathers on AVX2.
///
/// # Panics
///
/// Panics if `codes.len() != dst.len()`.
pub fn decode_table_u8(table: &[f32; 256], codes: &[u8], dst: &mut [f32]) {
    assert_eq!(codes.len(), dst.len(), "one code per output");
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; both slices hold `dst.len()`
            // elements (asserted above), and `table` holds 256 entries
            // by its type, so every byte code gathers in bounds.
            x86::decode_table_u8_avx2(table, codes, dst);
        },
        _ => {
            for (d, &c) in dst.iter_mut().zip(codes) {
                *d = table[usize::from(c)];
            }
        }
    }
}

/// Decode nibble-packed codes (two per byte, low nibble first) into
/// `dst` through a 16-entry codebook, bit for bit: on AVX2 two
/// `vpermps` look each code's low three bits up in both table halves
/// and code bit 3 picks the half.
///
/// # Panics
///
/// Panics if `packed` holds fewer than `ceil(dst.len() / 2)` bytes.
pub fn decode_table_u4(table: &[f32; 16], packed: &[u8], dst: &mut [f32]) {
    assert!(packed.len() * 2 >= dst.len(), "not enough packed codes");
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2 detected; each 8-code step reads 4 bytes
            // below `ceil(dst.len() / 2) ≤ packed.len()` (asserted
            // above), and the scalar tail covers the rest.
            x86::decode_table_u4_avx2(table, packed, dst);
        },
        _ => decode_table_u4_tail(table, packed, dst, 0),
    }
}

/// Scalar nibble decode from code index `start` (shared tail).
fn decode_table_u4_tail(table: &[f32; 16], packed: &[u8], dst: &mut [f32], start: usize) {
    for (i, d) in dst.iter_mut().enumerate().skip(start) {
        let byte = packed[i / 2];
        let code = if i % 2 == 0 { byte & 0xf } else { byte >> 4 };
        *d = table[usize::from(code)];
    }
}

// ---------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{decode_table_u4_tail, scan_tail};
    use crate::kernels::FastQuantizer;
    use crate::lut::LutQuantizer;
    use std::arch::x86_64::*;

    const EXP_MASK: u32 = 0x7f80_0000;
    const MANT_MASK: u32 = 0x007f_ffff;
    const ABS_MASK: u32 = 0x7fff_ffff;
    const SIGN_MASK: u32 = 0x8000_0000;

    /// AVX2 FastQuantizer: 8 lanes per step, scalar tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `src` and `dst` must each cover `len` valid f32s;
    /// they may alias exactly (in-place) but must not partially overlap.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(
        fq: &FastQuantizer,
        src: *const f32,
        dst: *mut f32,
        len: usize,
    ) {
        let t_half_min = _mm256_set1_epi32(fq.t_half_min as i32);
        let t_min = _mm256_set1_epi32(fq.t_min as i32);
        let t_max_m1 = _mm256_set1_epi32(fq.t_max.wrapping_sub(1) as i32);
        let vmin = _mm256_set1_epi32(fq.vmin_bits as i32);
        let vmax = _mm256_set1_epi32(fq.vmax_bits as i32);
        let abs_mask = _mm256_set1_epi32(ABS_MASK as i32);
        let sign_mask = _mm256_set1_epi32(SIGN_MASK as i32);
        let exp_mask = _mm256_set1_epi32(EXP_MASK as i32);
        let mant_mask = _mm256_set1_epi32(MANT_MASK as i32);
        let implicit = _mm256_set1_epi32(1 << 23);
        let round = _mm256_set1_epi32(fq.round as i32);
        let shift = _mm_cvtsi32_si128(fq.shift as i32);
        let mut i = 0;
        while i + 8 <= len {
            let bits = _mm256_loadu_si256(src.add(i) as *const __m256i);
            let abs = _mm256_and_si256(bits, abs_mask);
            let sign = _mm256_and_si256(bits, sign_mask);
            // Main path, branch-free (the carry into the exponent is
            // absorbed — see the module docs).
            let sig = _mm256_or_si256(_mm256_and_si256(abs, mant_mask), implicit);
            let q = _mm256_srl_epi32(_mm256_add_epi32(sig, round), shift);
            let main = _mm256_sub_epi32(
                _mm256_add_epi32(_mm256_and_si256(abs, exp_mask), _mm256_sll_epi32(q, shift)),
                implicit,
            );
            let mut r = _mm256_or_si256(sign, main);
            // abs < t_min → ±value_min (underflow-to-zero fixed below).
            let lt_min = _mm256_cmpgt_epi32(t_min, abs);
            r = _mm256_blendv_epi8(r, _mm256_or_si256(sign, vmin), lt_min);
            // abs ≥ t_max → ±value_max (∞ included; NaN fixed below).
            let ge_max = _mm256_cmpgt_epi32(abs, t_max_m1);
            r = _mm256_blendv_epi8(r, _mm256_or_si256(sign, vmax), ge_max);
            // NaN (abs > EXP_MASK) and abs < t_half_min → +0.0.
            let nan = _mm256_cmpgt_epi32(abs, exp_mask);
            let lt_half = _mm256_cmpgt_epi32(t_half_min, abs);
            r = _mm256_andnot_si256(_mm256_or_si256(nan, lt_half), r);
            _mm256_storeu_si256(dst.add(i) as *mut __m256i, r);
            i += 8;
        }
        while i < len {
            *dst.add(i) = fq.quantize_one(*src.add(i));
            i += 1;
        }
    }

    /// SSE4.1 FastQuantizer: 4 lanes per step, scalar tail.
    ///
    /// # Safety
    ///
    /// Requires SSE4.1. Same slice contract as [`quantize_avx2`].
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn quantize_sse41(
        fq: &FastQuantizer,
        src: *const f32,
        dst: *mut f32,
        len: usize,
    ) {
        let t_half_min = _mm_set1_epi32(fq.t_half_min as i32);
        let t_min = _mm_set1_epi32(fq.t_min as i32);
        let t_max_m1 = _mm_set1_epi32(fq.t_max.wrapping_sub(1) as i32);
        let vmin = _mm_set1_epi32(fq.vmin_bits as i32);
        let vmax = _mm_set1_epi32(fq.vmax_bits as i32);
        let abs_mask = _mm_set1_epi32(ABS_MASK as i32);
        let sign_mask = _mm_set1_epi32(SIGN_MASK as i32);
        let exp_mask = _mm_set1_epi32(EXP_MASK as i32);
        let mant_mask = _mm_set1_epi32(MANT_MASK as i32);
        let implicit = _mm_set1_epi32(1 << 23);
        let round = _mm_set1_epi32(fq.round as i32);
        let shift = _mm_cvtsi32_si128(fq.shift as i32);
        let mut i = 0;
        while i + 4 <= len {
            let bits = _mm_loadu_si128(src.add(i) as *const __m128i);
            let abs = _mm_and_si128(bits, abs_mask);
            let sign = _mm_and_si128(bits, sign_mask);
            let sig = _mm_or_si128(_mm_and_si128(abs, mant_mask), implicit);
            let q = _mm_srl_epi32(_mm_add_epi32(sig, round), shift);
            let main = _mm_sub_epi32(
                _mm_add_epi32(_mm_and_si128(abs, exp_mask), _mm_sll_epi32(q, shift)),
                implicit,
            );
            let mut r = _mm_or_si128(sign, main);
            let lt_min = _mm_cmpgt_epi32(t_min, abs);
            r = _mm_blendv_epi8(r, _mm_or_si128(sign, vmin), lt_min);
            let ge_max = _mm_cmpgt_epi32(abs, t_max_m1);
            r = _mm_blendv_epi8(r, _mm_or_si128(sign, vmax), ge_max);
            let nan = _mm_cmpgt_epi32(abs, exp_mask);
            let lt_half = _mm_cmpgt_epi32(t_half_min, abs);
            r = _mm_andnot_si128(_mm_or_si128(nan, lt_half), r);
            _mm_storeu_si128(dst.add(i) as *mut __m128i, r);
            i += 4;
        }
        while i < len {
            *dst.add(i) = fq.quantize_one(*src.add(i));
            i += 1;
        }
    }

    /// AVX2 fused max-abs / first-non-finite scan.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_avx2(data: &[f32]) -> (u32, Option<usize>) {
        let abs_mask = _mm256_set1_epi32(ABS_MASK as i32);
        let exp_mask = _mm256_set1_epi32(EXP_MASK as i32);
        let mut maxv = _mm256_setzero_si256();
        let mut first_non_finite = None;
        let ptr = data.as_ptr();
        let len = data.len();
        let mut i = 0;
        while i + 8 <= len {
            let bits = _mm256_loadu_si256(ptr.add(i) as *const __m256i);
            let abs = _mm256_and_si256(bits, abs_mask);
            // Finite lanes: abs < EXP_MASK (all operands ≤ 0x7fffffff,
            // so the signed compare orders them correctly).
            let finite = _mm256_cmpgt_epi32(exp_mask, abs);
            if first_non_finite.is_none() {
                let fin_bits = _mm256_movemask_ps(_mm256_castsi256_ps(finite)) as u32;
                if fin_bits != 0xff {
                    first_non_finite = Some(i + (!fin_bits & 0xff).trailing_zeros() as usize);
                }
            }
            maxv = _mm256_max_epi32(maxv, _mm256_and_si256(abs, finite));
            i += 8;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, maxv);
        let max = lanes.iter().map(|&l| l as u32).max().unwrap_or(0);
        scan_tail(data, i, max, first_non_finite)
    }

    /// AVX2 GEMM microkernel (see [`super::gemm_tile`]): rows in
    /// groups of four over 4×16 tiles, then every leftover row and
    /// column through [`row_strips`].
    ///
    /// # Safety
    ///
    /// Requires AVX2. Every row of the `rows × depth` block at `a`
    /// (stride `lda`), the `depth × width` block at `b` (stride `ldb`)
    /// and the `rows × width` block at `c` (stride `ldc`) must be valid
    /// f32s, and `c` must overlap neither input.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tile_avx2(
        [rows, depth, width]: [usize; 3],
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut i = 0;
        while i + 4 <= rows {
            let (a4, c4) = (a.add(i * lda), c.add(i * ldc));
            let mut j = 0;
            while j + 16 <= width {
                tile::<4, 2>(depth, a4, lda, b.add(j), ldb, c4.add(j), ldc);
                j += 16;
            }
            for r in 0..4 {
                row_strips([j, depth, width], a4.add(r * lda), b, ldb, c4.add(r * ldc));
            }
            i += 4;
        }
        for r in i..rows {
            row_strips([0, depth, width], a.add(r * lda), b, ldb, c.add(r * ldc));
        }
    }

    /// Columns `j0..width` of one output row: 64-wide strips (eight
    /// independent accumulators hide the add latency a single row
    /// otherwise serializes on), then 8-wide strips, then scalars.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn row_strips(
        [j0, depth, width]: [usize; 3],
        a: *const f32,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
    ) {
        let mut j = j0;
        while j + 64 <= width {
            tile::<1, 8>(depth, a, 0, b.add(j), ldb, c.add(j), 0);
            j += 64;
        }
        while j + 8 <= width {
            tile::<1, 1>(depth, a, 0, b.add(j), ldb, c.add(j), 0);
            j += 8;
        }
        for j in j..width {
            let mut acc = *c.add(j);
            for p in 0..depth {
                acc += *a.add(p) * *b.add(p * ldb + j);
            }
            *c.add(j) = acc;
        }
    }

    /// One `R × 8V` output tile in `R · V` accumulators over the whole
    /// depth: per step, `V` vectors of a `b` row meet `R` broadcast `a`
    /// values.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const V: usize>(
        depth: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, lane) in row.iter_mut().enumerate() {
                *lane = _mm256_loadu_ps(c.add(r * ldc + 8 * v));
            }
        }
        for p in 0..depth {
            let bp = b.add(p * ldb);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(r * lda + p));
                for (v, lane) in row.iter_mut().enumerate() {
                    *lane = _mm256_add_ps(*lane, _mm256_mul_ps(av, _mm256_loadu_ps(bp.add(8 * v))));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, lane) in row.iter().enumerate() {
                _mm256_storeu_ps(c.add(r * ldc + 8 * v), *lane);
            }
        }
    }

    /// AVX2 LUT gather: sign-folded biased keys, branchless binary
    /// search over the combined threshold table, one final values gather.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `src`/`dst` must each cover `len` valid f32s (they
    /// may alias exactly). `lut.combined` must satisfy the build
    /// invariants: `thresholds_biased.len()` is a power of two and
    /// `values.len() == thresholds_biased.len() + 1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_avx2(lut: &LutQuantizer, src: *const f32, dst: *mut f32, len: usize) {
        let combined = &lut.combined;
        let th = combined.thresholds_biased.as_ptr() as *const i32;
        let vals = combined.values.as_ptr() as *const i32;
        let p = combined.thresholds_biased.len();
        debug_assert!(p.is_power_of_two());
        debug_assert_eq!(combined.values.len(), p + 1);
        let one = _mm256_set1_epi32(1);
        let mut i = 0;
        while i + 8 <= len {
            let bits = _mm256_loadu_si256(src.add(i) as *const __m256i);
            // Biased key: bits ^ ((bits >>ₐ 31) >>ₗ 1) folds both sign
            // halves into one ascending order, pre-biased for signed
            // compares (see `lut::CombinedLut`).
            let key = _mm256_xor_si256(bits, _mm256_srli_epi32(_mm256_srai_epi32(bits, 31), 1));
            let mut base = _mm256_setzero_si256();
            let mut remaining = p;
            while remaining > 1 {
                let half = remaining / 2;
                let probe = _mm256_add_epi32(base, _mm256_set1_epi32(half as i32 - 1));
                let t = _mm256_i32gather_epi32(th, probe, 4);
                // t ≤ key ⇒ the lane's lower bound moves up by `half`.
                let gt = _mm256_cmpgt_epi32(t, key);
                base = _mm256_add_epi32(
                    base,
                    _mm256_andnot_si256(gt, _mm256_set1_epi32(half as i32)),
                );
                remaining -= half;
            }
            let t = _mm256_i32gather_epi32(th, base, 4);
            let gt = _mm256_cmpgt_epi32(t, key);
            let idx = _mm256_add_epi32(base, _mm256_andnot_si256(gt, one));
            let out = _mm256_i32gather_epi32(vals, idx, 4);
            _mm256_storeu_si256(dst.add(i) as *mut __m256i, out);
            i += 8;
        }
        while i < len {
            *dst.add(i) = lut.quantize_one(*src.add(i));
            i += 1;
        }
    }

    /// AVX2 byte-pack: 8 low bytes of 8 u32 codes → one u64 word each.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `codes.len()` must be a multiple of 8.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_u8_words_avx2(codes: &[u32], words: &mut Vec<u64>) {
        debug_assert_eq!(codes.len() % 8, 0);
        // Per 128-bit lane: byte 0 of each dword into positions 0..4.
        let shuf = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1,
            -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        for chunk in codes.chunks_exact(8) {
            let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
            let t = _mm256_shuffle_epi8(v, shuf);
            let lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(t)) as u32;
            let hi = _mm_cvtsi128_si32(_mm256_extracti128_si256(t, 1)) as u32;
            words.push((lo as u64) | ((hi as u64) << 32));
        }
    }

    /// AVX2 byte-unpack: one u64 word → 8 u32 codes each.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `words` must hold at least `full / 8` words and
    /// `dst` must cover `full` u32s; `full` is a multiple of 8.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u8_words_avx2(words: &[u64], dst: *mut u32, full: usize) {
        debug_assert_eq!(full % 8, 0);
        for (wi, &w) in words.iter().take(full / 8).enumerate() {
            let v = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(w as i64));
            _mm256_storeu_si256(dst.add(wi * 8) as *mut __m256i, v);
        }
    }

    /// AVX2 byte-code table decode: per 16 codes, two 8-lane gathers
    /// (two in flight decode measurably faster than one), then a
    /// scalar tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `codes.len()` must be at least `dst.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_table_u8_avx2(table: &[f32; 256], codes: &[u8], dst: &mut [f32]) {
        let base = table.as_ptr() as *const i32;
        let full = dst.len() & !15;
        let mut i = 0;
        while i < full {
            let c = _mm_loadu_si128(codes.as_ptr().add(i) as *const __m128i);
            let lo = _mm256_i32gather_epi32(base, _mm256_cvtepu8_epi32(c), 4);
            let hi =
                _mm256_i32gather_epi32(base, _mm256_cvtepu8_epi32(_mm_unpackhi_epi64(c, c)), 4);
            let out = dst.as_mut_ptr().add(i) as *mut __m256i;
            _mm256_storeu_si256(out, lo);
            _mm256_storeu_si256(out.add(1), hi);
            i += 16;
        }
        for (d, &c) in dst[full..].iter_mut().zip(&codes[full..]) {
            *d = table[usize::from(c)];
        }
    }

    /// Spread the 8 nibbles of a dword (low nibble first) into epi32 lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn nibbles_to_lanes(dword: u32) -> __m256i {
        let v = _mm256_set1_epi32(dword as i32);
        let shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
        _mm256_and_si256(_mm256_srlv_epi32(v, shifts), _mm256_set1_epi32(0xf))
    }

    /// AVX2 nibble-code table decode: per 8 codes, `vpermps` through
    /// each table half (it reads only the low three index bits), then a
    /// blend keyed on code bit 3, moved into the sign bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `packed` must hold `ceil(dst.len() / 2)` bytes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_table_u4_avx2(table: &[f32; 16], packed: &[u8], dst: &mut [f32]) {
        let lo = _mm256_loadu_ps(table.as_ptr());
        let hi = _mm256_loadu_ps(table.as_ptr().add(8));
        let full = dst.len() & !7;
        let mut i = 0;
        while i < full {
            let dword = (packed.as_ptr().add(i / 2) as *const u32).read_unaligned();
            let idx = nibbles_to_lanes(dword);
            let high_half = _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28));
            let v = _mm256_blendv_ps(
                _mm256_permutevar8x32_ps(lo, idx),
                _mm256_permutevar8x32_ps(hi, idx),
                high_half,
            );
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
            i += 8;
        }
        decode_table_u4_tail(table, packed, dst, full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_consistent() {
        let r = report();
        assert_eq!(r.lanes, r.isa.lanes());
        if r.forced_scalar {
            assert_eq!(r.isa, Isa::Scalar);
        }
        let json = r.to_json();
        assert!(json.contains("\"isa\""), "{json}");
        assert!(json.contains(r.isa.label()), "{json}");
    }

    #[test]
    fn scan_matches_scalar_twin() {
        let mut data: Vec<f32> = (0..67).map(|i| (i as f32 - 31.0) * 0.73).collect();
        assert_eq!(scan_abs(&data), scan_abs_scalar(&data));
        data[40] = f32::NAN;
        data[9] = f32::NEG_INFINITY;
        assert_eq!(scan_abs(&data), scan_abs_scalar(&data));
        assert_eq!(scan_abs(&data).1, Some(9));
        assert_eq!(scan_abs(&[]), (0, None));
    }

    #[test]
    fn gemm_tile_matches_the_naive_loop_on_a_strided_block() {
        // A 6×5 by 5×37 block inside wider matrices: one 4-row group,
        // two leftover rows, 16-, 8- and scalar-wide column remainders.
        let ([rows, depth, width], lda, ldb, ldc) = ([6, 5, 37], 7, 41, 40);
        let a: Vec<f32> = (0..rows * lda).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..depth * ldb).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut c: Vec<f32> = (0..rows * ldc).map(|i| i as f32 * 0.01).collect();
        let mut want = c.clone();
        for i in 0..rows {
            for j in 0..width {
                for p in 0..depth {
                    want[i * ldc + j] += a[i * lda + p] * b[p * ldb + j];
                }
            }
        }
        gemm_tile([rows, depth, width], &a, lda, &b, ldb, &mut c, ldc);
        let got: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_unpack_words_roundtrip() {
        let codes: Vec<u32> = (0..83).map(|i| (i * 37) & 0xff).collect();
        let mut words = Vec::new();
        let consumed = pack_u8_words(&codes, &mut words);
        assert_eq!(consumed, 80);
        assert_eq!(words.len(), 10);
        let mut back = vec![0u32; consumed];
        unpack_u8_words(&words, &mut back);
        assert_eq!(back, codes[..consumed]);
    }
}
