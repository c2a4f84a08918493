//! [`PackedGemm`]: a weight matrix kept in its n-bit quantized encoding
//! end to end, decoded on the fly inside the matmul microkernel.
//!
//! This is the software mirror of the paper's HFINT processing element:
//! the PE never stores full-precision weights — it streams narrow codes
//! and applies the per-tensor `exp_bias` scaling inside the datapath. The
//! serving stack's dequantize-then-GEMM path reads `4 · K · N` bytes of
//! f32 weights per layer per request; this kernel reads `width / 8 · K ·
//! N` bytes of codes instead (4× less at 8 bits, 8× at 4), decoding each
//! `KC × NC` tile once into an L1/L2-resident scratch block that every
//! batch row then reuses.
//!
//! **Bit-identity contract.** `matmul_into` reproduces
//! [`Tensor::matmul_slice_into`](crate::Tensor::matmul_slice_into) on
//! the dequantized weights exactly:
//!
//! * the packed layout is blocked per column tile, and the kernel walks
//!   `(k-tile, j-tile)` in the same order with the same `KC`/`NC` as the
//!   dense kernel, so every output element accumulates in ascending `k`;
//! * the decoded tile goes through the same microkernel,
//!   [`simd::gemm_tile`] (multiply then add, no FMA), the dense kernel
//!   runs;
//! * the decode is bit-exact: AdaptivFloat codes are rebuilt into f32
//!   patterns algebraically (valid in the fast-quantizer envelope),
//!   uniform codes go through the same exact `i32 → f64 · scale → f32`
//!   conversion as the scalar codec, and both are verified against the
//!   caller-supplied reference codebook over **all** `2^width` codes at
//!   build time — any mismatch silently falls back to table lookups,
//!   which are exact by construction.
//!
//! The kernel runs on the caller's thread (no fan-out): per-element
//! results are thread-count-independent either way, and serving batches
//! are small enough that the decode reuse, not parallelism, is the win.

use crate::tensor::{KC, NC};
use adaptivfloat::simd;

/// How a [`PackedGemm`] turns codes back into f32 weights in-kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PackedDecode {
    /// AdaptivFloat algebraic field rebuild (see [`simd::AfDecode`]).
    AdaptivFloat {
        /// Mantissa field width (`n − e − 1`).
        m: u32,
        /// The tensor's frozen exponent bias.
        exp_bias: i32,
    },
    /// Uniform (symmetric integer) codes at the plan's frozen scale.
    Uniform {
        /// The per-tensor scale.
        scale: f64,
    },
    /// Plain codebook lookup (always available, always exact).
    Table,
}

/// The decode strategy actually compiled into the kernel.
#[derive(Debug, Clone, Copy)]
enum Decoder {
    Af(simd::AfDecode),
    Uniform(f64),
    Table,
}

/// One column tile of the packed layout.
#[derive(Debug, Clone, Copy)]
struct Tile {
    /// First column this tile covers.
    j0: usize,
    /// Columns in the tile (`≤ NC`).
    jw: usize,
    /// Byte offset of the tile's first row segment.
    offset: usize,
    /// Bytes per row segment (`ceil(jw · width / 8)`).
    stride: usize,
}

/// Reusable decode scratch for [`PackedGemm::matmul_into`] — one
/// `KC × NC` f32 tile (256 KiB), grown on first use and then
/// allocation-free (serving holds one per batch scratch).
#[derive(Debug, Default, Clone)]
pub struct PackedGemmScratch {
    tile: Vec<f32>,
}

/// A `K × N` weight matrix stored as packed `width`-bit codes in a
/// column-tile-blocked byte layout, multiplied without ever
/// materializing the f32 matrix.
///
/// Build one with [`PackedGemm::build`] at freeze time; multiply with
/// [`matmul_into`](PackedGemm::matmul_into).
#[derive(Debug, Clone)]
pub struct PackedGemm {
    k: usize,
    n: usize,
    width: u32,
    tiles: Vec<Tile>,
    bytes: Vec<u8>,
    /// Reference codebook: `table[code]` is the decoded weight. The
    /// in-kernel decoders are verified against it at build time.
    table: Vec<f32>,
    decoder: Decoder,
}

impl PackedGemm {
    /// Pack the row-major `K × N` code matrix `codes` (each entry a
    /// `width`-bit code) into the blocked layout and compile the decode
    /// strategy.
    ///
    /// `table` must enumerate the decoded f32 for **every** `2^width`
    /// code — it is the exactness oracle: the requested `decode`
    /// strategy is checked against it over all codes and demoted to
    /// [`PackedDecode::Table`] on any bit mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 4 or 8, `codes.len() != k * n`,
    /// `table.len() != 2^width`, or any code has bits above `width`.
    pub fn build(
        k: usize,
        n: usize,
        width: u32,
        codes: &[u32],
        table: Vec<f32>,
        decode: PackedDecode,
    ) -> PackedGemm {
        assert!(width == 4 || width == 8, "width must be 4 or 8");
        assert_eq!(codes.len(), k * n, "code matrix shape mismatch");
        assert_eq!(table.len(), 1usize << width, "codebook size mismatch");
        assert!(
            codes.iter().all(|&c| c < (1u32 << width)),
            "code exceeds width"
        );
        let decoder = Self::verify_decoder(width, &table, decode);
        // Blocked layout: per column tile, the K row segments are stored
        // contiguously (byte-aligned, nibbles low-first) so the kernel
        // streams one tile sequentially.
        let mut tiles = Vec::with_capacity(n.div_ceil(NC).max(1));
        // Sized exactly: the codes are the layer's only resident weight
        // copy, so no growth slack rides along with them.
        let total: usize = (0..n)
            .step_by(NC)
            .map(|j0| k * ((n - j0).min(NC) * width as usize).div_ceil(8))
            .sum();
        let mut bytes = Vec::with_capacity(total);
        let mut j0 = 0;
        while j0 < n {
            let jw = (n - j0).min(NC);
            let stride = (jw * width as usize).div_ceil(8);
            let offset = bytes.len();
            for kk in 0..k {
                let row = &codes[kk * n + j0..kk * n + j0 + jw];
                pack_row(width, row, &mut bytes);
                debug_assert_eq!(bytes.len(), offset + (kk + 1) * stride);
            }
            tiles.push(Tile {
                j0,
                jw,
                offset,
                stride,
            });
            j0 += jw;
        }
        debug_assert_eq!(bytes.len(), total);
        PackedGemm {
            k,
            n,
            width,
            tiles,
            bytes,
            table,
            decoder,
        }
    }

    /// Check `decode` against the reference codebook over every code;
    /// fall back to table lookups on any mismatch.
    fn verify_decoder(width: u32, table: &[f32], decode: PackedDecode) -> Decoder {
        let candidate = match decode {
            PackedDecode::AdaptivFloat { m, exp_bias } => Decoder::Af(simd::AfDecode {
                n: width,
                m,
                exp_bias,
            }),
            PackedDecode::Uniform { scale } => Decoder::Uniform(scale),
            PackedDecode::Table => return Decoder::Table,
        };
        let exact = (0..1u32 << width).all(|code| {
            let want = table[code as usize].to_bits();
            let got = match candidate {
                Decoder::Af(d) => d.decode_one(code).to_bits(),
                Decoder::Uniform(scale) => {
                    let level = sign_extend(code, width);
                    ((level as f64 * scale) as f32).to_bits()
                }
                Decoder::Table => unreachable!(),
            };
            want == got
        });
        if exact {
            candidate
        } else {
            Decoder::Table
        }
    }

    /// Rows of the packed matrix (`K`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix (`N`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Bytes of packed weight storage the kernel streams (the
    /// weight-memory traffic per batch, vs `4 · k · n` for f32).
    pub fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Label of the decode strategy compiled into the kernel
    /// (`"adaptivfloat"`, `"uniform"`, or `"table"`).
    pub fn decode_label(&self) -> &'static str {
        match self.decoder {
            Decoder::Af(_) => "adaptivfloat",
            Decoder::Uniform(_) => "uniform",
            Decoder::Table => "table",
        }
    }

    /// Dequantize the full matrix through the codebook (row-major) —
    /// the reference the kernel is tested against, and the escape hatch
    /// for callers that need the f32 weights back.
    pub fn dequantize(&self) -> Vec<f32> {
        self.map_codes(|code| self.table[code as usize])
    }

    /// The code matrix (row-major `K × N`), as passed to
    /// [`build`](Self::build).
    pub fn codes(&self) -> Vec<u32> {
        self.map_codes(|code| code)
    }

    /// `f` of every code, row-major.
    fn map_codes<T: Copy + Default>(&self, f: impl Fn(u32) -> T) -> Vec<T> {
        let mut out = vec![T::default(); self.k * self.n];
        for tile in &self.tiles {
            for kk in 0..self.k {
                let seg = self.row_segment(tile, kk);
                let dst = &mut out[kk * self.n + tile.j0..kk * self.n + tile.j0 + tile.jw];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = f(extract_code(self.width, seg, j));
                }
            }
        }
        out
    }

    /// The packed bytes of row `kk` within `tile`.
    #[inline]
    fn row_segment(&self, tile: &Tile, kk: usize) -> &[u8] {
        &self.bytes[tile.offset + kk * tile.stride..tile.offset + (kk + 1) * tile.stride]
    }

    /// `out = a · W` where `a` is `m × K` row-major and `out` is
    /// `m × N`, decoding codes tile by tile. Bit-identical to
    /// `Tensor::matmul_slice_into(a, m, k, &dequantized, out)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k()` or `out.len() != m * n()`.
    pub fn matmul_into(
        &self,
        a: &[f32],
        m: usize,
        out: &mut [f32],
        scratch: &mut PackedGemmScratch,
    ) {
        assert_eq!(a.len(), m * self.k, "packed matmul lhs length");
        assert_eq!(out.len(), m * self.n, "packed matmul output length");
        out.fill(0.0);
        if m == 0 {
            return;
        }
        scratch.tile.resize(KC * NC, 0.0);
        let (k, n) = (self.k, self.n);
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + KC).min(k);
            for tile in &self.tiles {
                // Decode this KC × jw block once; every batch row below
                // reuses it from cache.
                let jw = tile.jw;
                for (p, dst) in scratch.tile.chunks_mut(jw).take(k1 - k0).enumerate() {
                    self.decode_row(tile, k0 + p, dst);
                }
                simd::gemm_tile(
                    [m, k1 - k0, jw],
                    &a[k0..],
                    k,
                    &scratch.tile,
                    jw,
                    &mut out[tile.j0..],
                    n,
                );
            }
            k0 = k1;
        }
    }

    /// Decode row `kk` of `tile` into `dst` (`dst.len() == tile.jw`).
    #[inline]
    fn decode_row(&self, tile: &Tile, kk: usize, dst: &mut [f32]) {
        let seg = self.row_segment(tile, kk);
        match (self.decoder, self.width) {
            (Decoder::Af(d), 8) => simd::decode_af_u8(&d, seg, dst),
            (Decoder::Af(d), _) => simd::decode_af_u4(&d, seg, dst),
            (Decoder::Uniform(scale), 8) => simd::decode_uniform_u8(scale, seg, dst),
            (Decoder::Uniform(scale), _) => simd::decode_uniform_u4(scale, seg, dst),
            (Decoder::Table, w) => {
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = self.table[extract_code(w, seg, j) as usize];
                }
            }
        }
    }
}

/// Sign-extend a `width`-bit two's-complement code.
fn sign_extend(code: u32, width: u32) -> i32 {
    let shift = 32 - width;
    ((code << shift) as i32) >> shift
}

/// Append one row of codes to `bytes` (byte-aligned; width 4 packs two
/// codes per byte, low nibble first, odd tail in a low nibble).
fn pack_row(width: u32, row: &[u32], bytes: &mut Vec<u8>) {
    if width == 8 {
        bytes.extend(row.iter().map(|&c| c as u8));
        return;
    }
    for pair in row.chunks(2) {
        let lo = pair[0] & 0xf;
        let hi = pair.get(1).map_or(0, |&c| c & 0xf);
        bytes.push((lo | (hi << 4)) as u8);
    }
}

/// Read code `j` from a packed row segment.
#[inline]
fn extract_code(width: u32, seg: &[u8], j: usize) -> u32 {
    if width == 8 {
        seg[j] as u32
    } else {
        let byte = seg[j / 2];
        (if j.is_multiple_of(2) {
            byte & 0xf
        } else {
            byte >> 4
        }) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn codebook(width: u32) -> Vec<f32> {
        // An arbitrary but deterministic codebook with distinct values.
        (0..1u32 << width)
            .map(|c| (c as f32 - 7.0) * 0.31 + (c as f32 * 0.011).sin())
            .collect()
    }

    fn codes(k: usize, n: usize, width: u32) -> Vec<u32> {
        (0..k * n)
            .map(|i| ((i as u32).wrapping_mul(2654435761)) >> (32 - width))
            .collect()
    }

    #[test]
    fn matmul_matches_dense_on_dequantized_weights() {
        for width in [4u32, 8] {
            for (m, k, n) in [(1, 5, 3), (3, 130, 520), (7, 257, 515)] {
                let codes = codes(k, n, width);
                let pg =
                    PackedGemm::build(k, n, width, &codes, codebook(width), PackedDecode::Table);
                let dense = Tensor::from_vec(pg.dequantize(), &[k, n]);
                let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.37).sin()).collect();
                let mut want = vec![0.0f32; m * n];
                Tensor::matmul_slice_into(&a, m, k, &dense, &mut want);
                let mut got = vec![0.0f32; m * n];
                let mut scratch = PackedGemmScratch::default();
                pg.matmul_into(&a, m, &mut got, &mut scratch);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "width={width} m={m} k={k} n={n}"
                );
            }
        }
    }

    #[test]
    fn dequantize_matches_codebook() {
        let (k, n, width) = (9, 1030, 4);
        let codes = codes(k, n, width);
        let table = codebook(width);
        let pg = PackedGemm::build(k, n, width, &codes, table.clone(), PackedDecode::Table);
        let deq = pg.dequantize();
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(deq[i].to_bits(), table[c as usize].to_bits(), "elem {i}");
        }
        // Two 4-bit codes per byte: packed traffic is ~1/8 of f32.
        assert!(pg.packed_bytes() <= k * n / 2 + k * pg.tiles.len());
        assert_eq!(pg.decode_label(), "table");
    }

    #[test]
    fn codes_read_back_as_built() {
        for (width, n) in [(4, 1030), (8, 300), (4, 7)] {
            let codes = codes(5, n, width);
            let pg = PackedGemm::build(5, n, width, &codes, codebook(width), PackedDecode::Table);
            assert_eq!(pg.codes(), codes, "width={width} n={n}");
        }
    }

    #[test]
    fn mismatched_decoder_falls_back_to_table() {
        // A codebook no algebraic AdaptivFloat decode can reproduce.
        let pg = PackedGemm::build(
            2,
            2,
            4,
            &[0, 1, 2, 3],
            codebook(4),
            PackedDecode::AdaptivFloat { m: 1, exp_bias: -3 },
        );
        assert_eq!(pg.decode_label(), "table");
    }
}
