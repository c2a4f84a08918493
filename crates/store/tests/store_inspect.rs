//! `store_inspect` on container files: each layer's `mode` names how its
//! codes decode (lossless raw f32, or format kind, word size and frozen
//! params), next to the width the codes are packed at. The containers
//! are written byte by byte from the documented layout, not by the
//! crate's encoder, so the tool is checked against the format itself.

use std::path::{Path, PathBuf};
use std::process::Command;

use adaptivfloat::PackedCodes;
use af_resilience::ProtectedCodes;
use af_store::bytes::ByteWriter;
use af_store::crc::crc32;
use af_store::{CONTAINER_MAGIC, CONTAINER_VERSION};

const TAG_SPEC: u8 = 1;
const TAG_LAYER: u8 = 2;
const TAG_END: u8 = 4;
/// The container's format-kind byte for AdaptivFloat.
const KIND_ADAPTIVFLOAT: u8 = 4;

/// How every layer of a test container is encoded.
#[derive(Clone, Copy)]
enum Mode {
    RawF32,
    /// AdaptivFloat<8,3>; layer `l` is frozen at `exp_bias = -3 - l`.
    AdaptivFloat8,
}

fn section(w: &mut ByteWriter, tag: u8, payload: &[u8]) {
    w.put_u8(tag);
    w.put_u64(payload.len() as u64);
    w.put_u32(crc32(payload));
    w.put_bytes(payload);
}

fn put_format(w: &mut ByteWriter, mode: Mode) {
    match mode {
        Mode::RawF32 => w.put_u8(0),
        Mode::AdaptivFloat8 => {
            w.put_u8(1);
            w.put_u8(KIND_ADAPTIVFLOAT);
            w.put_u32(8);
        }
    }
}

fn spec(dims: &[usize], mode: Mode) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str("inspect/v");
    w.put_str("ResNet");
    w.put_u64(dims.len() as u64);
    for &d in dims {
        w.put_u64(d as u64);
    }
    w.put_u64(7); // seed
    put_format(&mut w, mode); // weight format
    w.put_u8(0); // no activation format
    w.put_u8(matches!(mode, Mode::AdaptivFloat8) as u8); // protected
    w.put_u8(0); // fused
    w.put_str("label");
    w.put_u64(0); // generation
    w.put_u64(0); // rebuilds
    w.into_bytes()
}

fn layer(l: usize, rows: usize, cols: usize, mode: Mode) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(l as u32);
    w.put_u64(rows as u64);
    w.put_u64(cols as u64);
    let width = match mode {
        Mode::RawF32 => 32,
        Mode::AdaptivFloat8 => 8,
    };
    put_format(&mut w, mode);
    if let Mode::AdaptivFloat8 = mode {
        w.put_u8(0); // PlanParams::AdaptivFloat
        w.put_i32(-3 - l as i32);
    }
    let mut codes = PackedCodes::new(width);
    for i in 0..rows * cols {
        let code = match mode {
            Mode::RawF32 => (i as f32 * 0.25 - 1.0).to_bits() as u64,
            Mode::AdaptivFloat8 => (i as u64 * 37 + l as u64) & 0xff,
        };
        codes.push(code);
    }
    let codes = ProtectedCodes::protect(codes);
    w.put_u32(width);
    w.put_u64((rows * cols) as u64);
    w.put_u64_slice(codes.codes().words());
    w.put_u64(codes.parity().len() as u64);
    w.put_bytes(codes.parity());
    for _ in 0..3 {
        w.put_u64(0); // ECC history: corrected, uncorrectable, scrub passes
    }
    w.into_bytes()
}

fn container(dims: &[usize], mode: Mode) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(CONTAINER_MAGIC);
    w.put_u16(CONTAINER_VERSION);
    section(&mut w, TAG_SPEC, &spec(dims, mode));
    for (l, d) in dims.windows(2).enumerate() {
        section(&mut w, TAG_LAYER, &layer(l, d[0], d[1], mode));
    }
    section(&mut w, TAG_END, &[]);
    w.into_bytes()
}

fn inspect(path: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_store_inspect"))
        .arg(path)
        .output()
        .expect("store_inspect runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert!(out.status.success(), "store_inspect failed: {stdout}");
    stdout
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("af-store-inspect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn store_inspect_reports_each_layers_mode_and_code_width() {
    let dir = scratch();
    let dims = [5, 4, 3];
    for mode in [Mode::RawF32, Mode::AdaptivFloat8] {
        let path = dir.join("v.afc");
        std::fs::write(&path, container(&dims, mode)).unwrap();
        let json = inspect(&path);
        assert!(json.contains("\"type\":\"container\""), "{json}");
        for (l, d) in dims.windows(2).enumerate() {
            let (mode_json, width) = match mode {
                Mode::RawF32 => ("\"raw_f32\"".to_string(), 32),
                Mode::AdaptivFloat8 => (
                    format!(
                        "{{\"kind\":\"AdaptivFloat\",\"bits\":8,\
                         \"params\":\"AdaptivFloat {{ exp_bias: {} }}\"}}",
                        -3 - l as i32
                    ),
                    8,
                ),
            };
            let want = format!(
                "{{\"rows\":{},\"cols\":{},\"mode\":{mode_json},\"code_width\":{width},",
                d[0], d[1]
            );
            assert!(json.contains(&want), "layer {l}: want {want} in {json}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
