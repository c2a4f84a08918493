//! The slice codecs are per-element codecs, only faster.
//!
//! `StorageCodec::encode_slice` / `encode_rounded` encode through the
//! codec's code index and `decode_slice` reads its decode table; this
//! suite holds them bit-identical to per-element `encode_one` /
//! `decode_one` (values *and* `DecodeStats`, under both policies) for
//! every format kind at n ∈ {4, 6, 8}, on raw tensors, tensors already
//! rounded onto the grid, and codes with flipped bits.

use adaptivfloat::{DecodePolicy, DecodeStats, FormatKind, PackedCodes, QuantStats, StorageCodec};

const WIDTHS: [u32; 3] = [4, 6, 8];
const POLICIES: [DecodePolicy; 2] = [DecodePolicy::Raw, DecodePolicy::Harden];

/// SplitMix64: a seeded stream of test inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The counter steps by the golden gamma, and the finalizer mixes
    /// the next counter value.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..bound`.
    fn next_below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A heavy-tailed tensor at magnitude `scale`, salted with signed
/// zeros, subnormals and values far outside any 8-bit range.
fn raw_tensor(seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    let mut data: Vec<f32> = (0..2048)
        .map(|_| {
            let u = rng.next_f64() as f32 * 2.0 - 1.0;
            let tail = if rng.next_below(50) == 0 { 8.0 } else { 1.0 };
            u * u * u.signum() * scale * tail
        })
        .collect();
    data.extend_from_slice(&[0.0, -0.0, 1e-40, -1e-40, 1e-7, -1e-7, 1e6, -1e6]);
    data
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn per_element_encode(codec: &StorageCodec, data: &[f32]) -> PackedCodes {
    let mut packed = PackedCodes::new(codec.width());
    for &v in data {
        packed.push(u64::from(codec.encode_one(v)));
    }
    packed
}

/// Every code a `width`-bit word can hold, in order.
fn every_code(width: u32) -> PackedCodes {
    let mut every = PackedCodes::new(width);
    for c in 0..1u64 << width {
        every.push(c);
    }
    every
}

fn assert_decode_matches(codec: &StorageCodec, codes: &PackedCodes, what: &str) {
    for policy in POLICIES {
        let mut want_stats = DecodeStats::new();
        let want: Vec<f32> = codes
            .iter()
            .map(|c| codec.decode_one(c as u32, policy, &mut want_stats))
            .collect();
        let (got, stats) = codec.decode_slice(codes, policy);
        assert_eq!(bits(&got), bits(&want), "{what} {policy}: values");
        assert_eq!(stats, want_stats, "{what} {policy}: stats");
    }
}

/// Every fitted codec the suite sweeps, with the data it was fitted to
/// and a label.
fn codecs() -> Vec<(StorageCodec, Vec<f32>, String)> {
    let mut out = Vec::new();
    for (i, scale) in [0.05f32, 1.0, 30.0].into_iter().enumerate() {
        let data = raw_tensor(0xC0DE + i as u64, scale);
        for kind in FormatKind::ALL {
            for n in WIDTHS {
                let codec = StorageCodec::fit(kind, n, &data).expect("valid geometry");
                out.push((codec, data.clone(), format!("{kind} n={n} scale={scale}")));
            }
        }
    }
    out
}

#[test]
fn every_codec_at_eight_bits_or_less_has_an_index() {
    for (codec, _, what) in codecs() {
        assert!(codec.index().is_some(), "{what}: no code index");
    }
}

#[test]
fn encode_slice_matches_encode_one_on_raw_tensors() {
    for (codec, data, what) in codecs() {
        assert_eq!(
            codec.encode_slice(&data),
            per_element_encode(&codec, &data),
            "{what}"
        );
    }
}

#[test]
fn encode_slice_matches_encode_one_on_rounded_tensors() {
    for (codec, data, what) in codecs() {
        let (mut rounded, _) =
            codec.decode_slice(&per_element_encode(&codec, &data), DecodePolicy::Raw);
        // The lookup, not the scalar fallback, answers for every nonzero
        // value the encoder produces.
        let index = codec.index().unwrap();
        for &v in rounded.iter().filter(|v| **v != 0.0) {
            assert!(index.lookup(v).is_some(), "{what}: {v} missed the index");
        }
        // Also every finite value any code decodes to, including ones the
        // encoder never returns (e.g. a two's-complement extreme).
        let (every, _) = codec.decode_slice(&every_code(codec.width()), DecodePolicy::Raw);
        rounded.extend(every.into_iter().filter(|v| v.is_finite()));
        assert_eq!(
            codec.encode_slice(&rounded),
            per_element_encode(&codec, &rounded),
            "{what}"
        );
    }
}

#[test]
fn encode_rounded_through_the_fitted_plan_matches_encode_one() {
    // The protected store's path: quantize through the plan the codec
    // was fitted from, then look the rounded values up. The all-zero and
    // non-finite tensors take the planners' zero and non-finite branches.
    let mut inputs: Vec<(Vec<f32>, String)> = [0.05f32, 1.0, 30.0]
        .into_iter()
        .enumerate()
        .map(|(i, scale)| {
            (
                raw_tensor(0xF00D + i as u64, scale),
                format!("scale={scale}"),
            )
        })
        .collect();
    let mut zeros = vec![0.0f32; 64];
    zeros[7] = -0.0;
    inputs.push((zeros, "all zero".to_string()));
    let mut nonfinite = raw_tensor(0xF00D, 1.0);
    nonfinite.extend_from_slice(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN]);
    inputs.push((nonfinite, "nan and inf".to_string()));
    for (data, what) in &inputs {
        for kind in FormatKind::ALL {
            for n in WIDTHS {
                let plan = kind.build(n).unwrap().plan(&QuantStats::from_slice(data));
                let codec = StorageCodec::from_params(kind, n, *plan.params()).unwrap();
                let fitted = StorageCodec::fit(kind, n, data).unwrap();
                assert_eq!(codec, fitted, "{kind} n={n} {what}");
                assert_eq!(
                    codec.encode_rounded(data, &plan.execute(data)),
                    per_element_encode(&codec, data),
                    "{kind} n={n} {what}"
                );
            }
        }
    }
}

#[test]
fn decode_slice_matches_decode_one_on_clean_and_flipped_codes() {
    for (k, (codec, data, what)) in codecs().into_iter().enumerate() {
        let clean = codec.encode_slice(&data);
        assert_decode_matches(&codec, &clean, &format!("{what} clean"));
        // Strike roughly one code in four with a random bit mask.
        let mut hit = clean.clone();
        let mut rng = SplitMix64::new(0xF11B + k as u64);
        let mask = (1u64 << codec.width()) - 1;
        for i in 0..hit.len() {
            if rng.next_below(4) == 0 {
                hit.flip_bits(i, (rng.next_u64() & mask).max(1));
            }
        }
        assert_ne!(hit, clean);
        assert_decode_matches(&codec, &hit, &format!("{what} flipped"));
        assert_decode_matches(
            &codec,
            &every_code(codec.width()),
            &format!("{what} every code"),
        );
    }
}
