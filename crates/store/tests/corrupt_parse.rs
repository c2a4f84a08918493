//! Property/fuzz tests for the container and WAL parsers: arbitrary
//! truncations, random byte flips, random garbage, and torn final WAL
//! records must all produce typed errors (or clean drops) — never a
//! panic, never an OOM-sized allocation, and never silently wrong data.

use std::path::{Path, PathBuf};

use adaptivfloat::{FormatKind, StorageCodec};
use af_resilience::ProtectedCodes;
use af_store::crc::crc32;
use af_store::{
    decode_container, encode_container, raw_f32_codes, ActRecord, SpecRecord, StoreError,
    StoredLayer, StoredVariant, SyncPolicy, WalOp, WalWriter, CONTAINER_MAGIC, CONTAINER_VERSION,
    WAL_MAGIC, WAL_VERSION,
};
use proptest::prelude::*;

fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("af-store-fuzz-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a deterministic variant parameterized by the fuzz inputs so
/// different cases exercise different section sizes and formats.
fn make_variant(seed: u64, rows: usize, cols: usize, quantized: bool, act: bool) -> StoredVariant {
    let count = rows * cols;
    let weights: Vec<f32> = (0..count)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 4001;
            (x as f32 - 2000.0) * 1e-3
        })
        .collect();
    let (codec, codes) = if quantized {
        let codec = StorageCodec::fit(FormatKind::AdaptivFloat, 8, &weights).unwrap();
        let codes = ProtectedCodes::protect(codec.encode_slice(&weights));
        (Some(codec), codes)
    } else {
        (None, raw_f32_codes(&weights))
    };
    StoredVariant {
        spec: SpecRecord {
            id: format!("fuzz/v{seed}"),
            family: "ResNet".to_string(),
            dims: vec![rows, cols],
            seed,
            weight_format: quantized.then_some((FormatKind::AdaptivFloat, 8)),
            act_format: act.then_some((FormatKind::AdaptivFloat, 8)),
            protected: quantized,
            fused: false,
            format_label: "fuzz".to_string(),
            generation: seed % 5,
            rebuilds: 0,
        },
        layers: vec![StoredLayer {
            rows,
            cols,
            codec,
            codes,
        }],
        act: act.then(|| ActRecord {
            kind: FormatKind::AdaptivFloat,
            n: 8,
            maxes: vec![1.0 + (seed % 7) as f32 * 0.25],
        }),
    }
}

fn assert_typed(err: &StoreError) {
    // Exercise the Display/kind paths too — they must not panic either.
    let kind = err.kind();
    assert!(
        matches!(
            kind,
            "io" | "bad_magic"
                | "unsupported_version"
                | "truncated"
                | "corrupt"
                | "malformed"
                | "missing_checkpoint"
                | "restore"
        ),
        "unknown error kind {kind}"
    );
    let _ = err.to_string();
}

proptest! {
    /// Any prefix of a valid container either parses to the original
    /// (full length) or fails typed.
    #[test]
    fn container_truncation_never_panics(
        seed in 0u64..1000,
        rows in 1usize..12,
        cols in 1usize..12,
        shape in 0u8..4,
        frac in 0.0f64..1.0,
    ) {
        let (quantized, act) = (shape & 1 != 0, shape & 2 != 0);
        let v = make_variant(seed, rows, cols, quantized, act);
        let bytes = encode_container(&v);
        let cut = ((bytes.len() as f64) * frac) as usize;
        match decode_container(&bytes[..cut], Path::new("mem")) {
            Ok(_) => prop_assert_eq!(cut, bytes.len()),
            Err(e) => assert_typed(&e),
        }
    }

    /// A single flipped bit anywhere in a container either (a) fails
    /// typed, or (b) parses successfully — in which case it landed in a
    /// SEC-DED-protected LAYER word, was repaired, and the decoded
    /// weights are bit-identical to the clean file's.
    #[test]
    fn container_bit_flip_is_repaired_or_typed(
        seed in 0u64..1000,
        rows in 1usize..10,
        cols in 1usize..10,
        shape in 0u8..4,
        pos_sel in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let (quantized, act) = (shape & 1 != 0, shape & 2 != 0);
        let v = make_variant(seed, rows, cols, quantized, act);
        let clean = encode_container(&v);
        let pos = (pos_sel % clean.len() as u64) as usize;
        let mut bent = clean.clone();
        bent[pos] ^= 1 << bit;
        match decode_container(&bent, Path::new("mem")) {
            Err(e) => assert_typed(&e),
            Ok((back, report)) => {
                prop_assert!(
                    report.sections_repaired > 0,
                    "flip at byte {} accepted without repair", pos
                );
                let (got, _) = back.layers[0].decode_values().unwrap();
                let (want, _) = v.layers[0].decode_values().unwrap();
                let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(gb, wb);
            }
        }
    }

    /// Pure garbage never panics the container parser.
    #[test]
    fn container_garbage_never_panics(garbage in prop::collection::vec(0u8..=255, 0..4096)) {
        if let Err(e) = decode_container(&garbage, Path::new("mem")) {
            assert_typed(&e);
        }
    }

    /// Garbage with a valid header still never panics — this drives the
    /// section state machine instead of bouncing off the magic check.
    #[test]
    fn container_garbage_after_header_never_panics(
        garbage in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        let mut bytes = CONTAINER_MAGIC.to_vec();
        bytes.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        bytes.extend_from_slice(&garbage);
        if let Err(e) = decode_container(&bytes, Path::new("mem")) {
            assert_typed(&e);
        }
    }

    /// A WAL torn at any byte replays only intact records, drops the
    /// tail cleanly, and resumes with correct sequencing.
    #[test]
    fn wal_torn_anywhere_replays_cleanly(
        case in 0u64..1_000_000,
        nrecords in 1usize..12,
        frac in 0.0f64..1.0,
    ) {
        let dir = scratch("torn", case);
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, SyncPolicy::EveryRecord).unwrap();
        let ops: Vec<WalOp> = (0..nrecords)
            .map(|i| match i % 4 {
                0 => WalOp::Register { id: format!("v{i}"), generation: i as u64 },
                1 => WalOp::Scrub {
                    id: format!("v{i}"),
                    corrected: i as u64,
                    uncorrectable: 0,
                    rebuilt: i % 2 == 0,
                    generation: i as u64,
                },
                2 => WalOp::Swap { id: format!("v{i}"), generation: i as u64 },
                _ => WalOp::Unregister { id: format!("v{i}") },
            })
            .collect();
        for op in &ops {
            w.append(op).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let cut = 10 + (((full.len() - 10) as f64) * frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let rp = af_store::replay(&path).unwrap();
        // Replayed records are an exact prefix of what was written.
        for (i, rec) in rp.records.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64 + 1);
            prop_assert_eq!(&rec.op, &ops[i]);
        }
        prop_assert_eq!(
            rp.valid_bytes + rp.torn_bytes_dropped,
            cut as u64
        );
        // Resume after the tear keeps sequencing contiguous.
        let mut w = WalWriter::resume(&path, SyncPolicy::EveryRecord, &rp).unwrap();
        let seq = w.append(&WalOp::Swap { id: "tail".to_string(), generation: 0 }).unwrap();
        prop_assert_eq!(seq, rp.records.len() as u64 + 1);
        drop(w);
        let rp2 = af_store::replay(&path).unwrap();
        prop_assert_eq!(rp2.records.len(), rp.records.len() + 1);
        prop_assert_eq!(rp2.torn_bytes_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random garbage WAL bodies never panic replay, and byte
    /// accounting always balances.
    #[test]
    fn wal_garbage_never_panics(garbage in prop::collection::vec(0u8..=255, 0..2048)) {
        let dir = scratch("garbage", garbage.len() as u64);
        let path = dir.join("wal.log");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).unwrap();
        let rp = af_store::replay(&path).unwrap();
        prop_assert_eq!(
            rp.valid_bytes + rp.torn_bytes_dropped,
            bytes.len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn params_mismatch_fails_typed_on_decode() {
    // A CRC-valid container whose first LAYER stores params of another
    // format kind (Static params under AdaptivFloat) is refused at parse
    // time, typed, naming the file.
    let bytes = encode_container(&make_variant(1, 3, 3, true, false));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    // Magic and version (10 bytes), then the SPEC section: tag u8 ·
    // len u64 · crc32 u32 · payload.
    let layer = 10 + 13 + u64_at(11);
    assert_eq!(bytes[layer], 2, "LAYER tag");
    let payload = &bytes[layer + 13..layer + 13 + u64_at(layer + 1)];
    // index u32 · rows u64 · cols u64 · mode u8 · kind u8 · n u32, then
    // the params tag (0 = AdaptivFloat) and its i32 exp_bias.
    let tag = 4 + 8 + 8 + 1 + 1 + 4;
    assert_eq!(payload[tag], 0, "AdaptivFloat params tag");
    let mut patched = payload[..tag].to_vec();
    patched.push(3); // PlanParams::Static, which carries no fields
    patched.extend_from_slice(&payload[tag + 5..]);
    let mut bent = bytes[..layer + 1].to_vec();
    bent.extend_from_slice(&(patched.len() as u64).to_le_bytes());
    bent.extend_from_slice(&crc32(&patched).to_le_bytes());
    bent.extend_from_slice(&patched);
    bent.extend_from_slice(&bytes[layer + 13 + payload.len()..]);
    let path = Path::new("variants/mismatch.afc");
    let err = decode_container(&bent, path).unwrap_err();
    assert_eq!(err.kind(), "malformed", "{err}");
    assert!(err.to_string().contains("variants/mismatch.afc"), "{err}");
}
