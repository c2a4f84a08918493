//! The `.afc` container: one frozen variant persisted as its
//! [`StoredLayer`]s — each an optional [`StorageCodec`] (format kind,
//! word size and frozen [`PlanParams`]; none for lossless raw f32) over
//! SEC-DED protected packed codes.
//!
//! ```text
//! magic "AFSTORE1" · version u16
//! section*  :=  tag u8 · len u64 · crc32 u32 · payload[len]
//!   tag 1 = SPEC   (variant identity, generation, rebuilds)
//!   tag 2 = LAYER  (one weight tensor: shape, codec, codes + parity +
//!                   ECC stats)
//!   tag 3 = ACT    (calibrated activation ranges)
//!   tag 4 = END    (empty payload; everything after it is rejected)
//! ```
//!
//! The LAYER parser builds each codec once, so params that do not fit
//! their format kind fail the parse; the code width is checked by
//! [`StoredLayer::check_width`] before any code is read.
//!
//! Every payload carries its own CRC-32, so a flipped byte fails the
//! section it landed in, not the whole file. LAYER sections get a
//! second chance the others don't: their payload *is* ECC-protected
//! storage, so on a CRC mismatch the reader parses the bytes anyway,
//! runs a SEC-DED scrub over the codes, and accepts the section iff the
//! repaired image reproduces the stored CRC — a disk bit-flip in a
//! weight word heals exactly like a DRAM upset would. Corrupt or
//! truncated files always fail typed ([`StoreError`]), never panic.

use std::io::Write;
use std::path::Path;

use adaptivfloat::{DecodePolicy, FormatError, FormatKind, PackedCodes, PlanParams, StorageCodec};
use af_resilience::{EccStats, ProtectedCodes, ScrubReport};

use crate::bytes::{ByteReader, ByteWriter, ShortRead};
use crate::crc::crc32;
use crate::error::StoreError;

/// Container magic bytes.
pub const CONTAINER_MAGIC: &[u8; 8] = b"AFSTORE1";
/// The container format version this build writes and the only one it
/// reads. Version 2 dropped version 1's three build counters from SPEC.
pub const CONTAINER_VERSION: u16 = 2;

const TAG_SPEC: u8 = 1;
const TAG_LAYER: u8 = 2;
const TAG_ACT: u8 = 3;
const TAG_END: u8 = 4;

/// The variant identity and persistent state a container preserves —
/// everything a registry needs to republish the exact snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRecord {
    /// Registry key.
    pub id: String,
    /// Model family label (e.g. `"ResNet"`).
    pub family: String,
    /// Layer widths, input first.
    pub dims: Vec<usize>,
    /// Synthesis seed (biases and protected masters re-derive from it).
    pub seed: u64,
    /// Weight PTQ format, or `None` for FP32 weights.
    pub weight_format: Option<(FormatKind, u32)>,
    /// Calibrated activation format, or `None`.
    pub act_format: Option<(FormatKind, u32)>,
    /// Whether the served weights live behind SEC-DED storage.
    pub protected: bool,
    /// Whether the variant serves through the fused packed GEMM.
    pub fused: bool,
    /// The served weight-format label (e.g. `"AdaptivFloat<8,3>+secded"`).
    pub format_label: String,
    /// Hot-swap generation at persist time.
    pub generation: u64,
    /// Times the protected store was re-encoded from its master.
    pub rebuilds: u64,
}

/// One persisted weight tensor: geometry, the codec its codes decode
/// under, and the SEC-DED protected code image (including its
/// cumulative ECC counters). The one shape of a stored layer: a
/// protected store holds these in memory, a container persists them,
/// and restore hands them back.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredLayer {
    /// Weight matrix rows (input width).
    pub rows: usize,
    /// Weight matrix columns (output width).
    pub cols: usize,
    /// The frozen codec the codes decode under, or `None` for the
    /// lossless fallback: `f32` bit patterns stored as width-32 codes
    /// (FP32 variants, or quantized values whose codec roundtrip was
    /// not bit-exact at persist time).
    pub codec: Option<StorageCodec>,
    /// The protected code image, parity and ECC history included.
    pub codes: ProtectedCodes,
}

/// Calibrated activation quantization state: the per-layer abs-max
/// ranges frozen at calibration time. Restoring plans from these is
/// bit-identical to the original calibration (same
/// `QuantStats::calibrated` path) without rerunning the forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ActRecord {
    /// Activation format kind.
    pub kind: FormatKind,
    /// Word size in bits.
    pub n: u32,
    /// One frozen abs-max per layer.
    pub maxes: Vec<f32>,
}

/// A fully parsed container: everything needed to rebuild one servable
/// variant without touching the f32 master.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredVariant {
    /// Identity and counters.
    pub spec: SpecRecord,
    /// One entry per weight tensor, in layer order.
    pub layers: Vec<StoredLayer>,
    /// Activation calibration, when the spec quantizes activations.
    pub act: Option<ActRecord>,
}

/// What reading a container observed beyond the parsed data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// LAYER sections whose CRC failed but whose SEC-DED parity
    /// repaired the payload back to the stored checksum.
    pub sections_repaired: usize,
    /// Storage words corrected by those repairs.
    pub words_corrected: usize,
}

fn kind_to_u8(kind: FormatKind) -> u8 {
    match kind {
        FormatKind::Float => 0,
        FormatKind::Bfp => 1,
        FormatKind::Uniform => 2,
        FormatKind::Posit => 3,
        FormatKind::AdaptivFloat => 4,
    }
}

fn kind_from_u8(b: u8) -> Option<FormatKind> {
    Some(match b {
        0 => FormatKind::Float,
        1 => FormatKind::Bfp,
        2 => FormatKind::Uniform,
        3 => FormatKind::Posit,
        4 => FormatKind::AdaptivFloat,
        _ => return None,
    })
}

/// A payload parse failure: ran short, carried an impossible value, or
/// described a codec no format builds.
enum ParseErr {
    Short(ShortRead),
    Bad(&'static str),
    Codec(FormatError),
}

impl From<ShortRead> for ParseErr {
    fn from(s: ShortRead) -> ParseErr {
        ParseErr::Short(s)
    }
}

impl ParseErr {
    fn context(&self) -> String {
        match self {
            ParseErr::Short(s) => s.to_string(),
            ParseErr::Bad(msg) => (*msg).to_string(),
            ParseErr::Codec(e) => format!("stored params cannot rebuild a codec: {e}"),
        }
    }
}

fn write_format_opt(w: &mut ByteWriter, fmt: Option<(FormatKind, u32)>) {
    match fmt {
        None => w.put_u8(0),
        Some((kind, n)) => {
            w.put_u8(1);
            w.put_u8(kind_to_u8(kind));
            w.put_u32(n);
        }
    }
}

fn read_format_opt(r: &mut ByteReader<'_>) -> Result<Option<(FormatKind, u32)>, ParseErr> {
    match r.get_u8("format flag")? {
        0 => Ok(None),
        1 => {
            let kind = kind_from_u8(r.get_u8("format kind")?)
                .ok_or(ParseErr::Bad("unknown format kind"))?;
            Ok(Some((kind, r.get_u32("format width")?)))
        }
        _ => Err(ParseErr::Bad("format flag is neither 0 nor 1")),
    }
}

fn write_params(w: &mut ByteWriter, params: &PlanParams) {
    match *params {
        PlanParams::AdaptivFloat { exp_bias } => {
            w.put_u8(0);
            w.put_i32(exp_bias);
        }
        PlanParams::Bfp { shared_exp } => {
            w.put_u8(1);
            match shared_exp {
                Some(e) => {
                    w.put_u8(1);
                    w.put_i32(e);
                }
                None => {
                    w.put_u8(0);
                    w.put_i32(0);
                }
            }
        }
        PlanParams::Uniform { scale } => {
            w.put_u8(2);
            w.put_f64_bits(scale);
        }
        PlanParams::Static => w.put_u8(3),
        PlanParams::PerBlock => w.put_u8(4),
    }
}

fn read_params(r: &mut ByteReader<'_>) -> Result<PlanParams, ParseErr> {
    Ok(match r.get_u8("plan params tag")? {
        0 => PlanParams::AdaptivFloat {
            exp_bias: r.get_i32("exp_bias")?,
        },
        1 => {
            let has = r.get_u8("shared_exp flag")?;
            let e = r.get_i32("shared_exp")?;
            PlanParams::Bfp {
                shared_exp: match has {
                    0 => None,
                    1 => Some(e),
                    _ => return Err(ParseErr::Bad("shared_exp flag is neither 0 nor 1")),
                },
            }
        }
        2 => PlanParams::Uniform {
            scale: r.get_f64_bits("uniform scale")?,
        },
        3 => PlanParams::Static,
        4 => PlanParams::PerBlock,
        _ => return Err(ParseErr::Bad("unknown plan params tag")),
    })
}

fn encode_spec(w: &mut ByteWriter, spec: &SpecRecord) {
    w.put_str(&spec.id);
    w.put_str(&spec.family);
    w.put_u64(spec.dims.len() as u64);
    for &d in &spec.dims {
        w.put_u64(d as u64);
    }
    w.put_u64(spec.seed);
    write_format_opt(w, spec.weight_format);
    write_format_opt(w, spec.act_format);
    w.put_u8(spec.protected as u8);
    w.put_u8(spec.fused as u8);
    w.put_str(&spec.format_label);
    w.put_u64(spec.generation);
    w.put_u64(spec.rebuilds);
}

fn decode_spec(bytes: &[u8]) -> Result<SpecRecord, ParseErr> {
    let mut r = ByteReader::new(bytes);
    let id = r.get_str("spec id")?;
    let family = r.get_str("spec family")?;
    let ndims = r.get_count(8, "spec dims")?;
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(r.get_u64("spec dim")? as usize);
    }
    if dims.len() < 2 || dims.contains(&0) {
        return Err(ParseErr::Bad("spec dims must be >= 2 nonzero widths"));
    }
    let seed = r.get_u64("spec seed")?;
    let weight_format = read_format_opt(&mut r)?;
    let act_format = read_format_opt(&mut r)?;
    let protected = match r.get_u8("protected flag")? {
        0 => false,
        1 => true,
        _ => return Err(ParseErr::Bad("protected flag is neither 0 nor 1")),
    };
    let fused = match r.get_u8("fused flag")? {
        0 => false,
        1 => true,
        _ => return Err(ParseErr::Bad("fused flag is neither 0 nor 1")),
    };
    let spec = SpecRecord {
        id,
        family,
        dims,
        seed,
        weight_format,
        act_format,
        protected,
        fused,
        format_label: r.get_str("format label")?,
        generation: r.get_u64("generation")?,
        rebuilds: r.get_u64("rebuilds")?,
    };
    if !r.is_empty() {
        return Err(ParseErr::Bad("trailing bytes in SPEC payload"));
    }
    Ok(spec)
}

/// Serialize one layer with an explicit stats value — the writer passes
/// the live stats; the ECC-repair path passes the *stored* stats so a
/// repaired payload can reproduce the original CRC byte for byte.
fn encode_layer_with(w: &mut ByteWriter, index: u32, layer: &StoredLayer, stats: EccStats) {
    w.put_u32(index);
    w.put_u64(layer.rows as u64);
    w.put_u64(layer.cols as u64);
    match &layer.codec {
        None => w.put_u8(0),
        Some(codec) => {
            w.put_u8(1);
            w.put_u8(kind_to_u8(codec.kind()));
            w.put_u32(codec.width());
            write_params(w, &codec.params());
        }
    }
    let (codes, parity) = (layer.codes.codes(), layer.codes.parity());
    w.put_u32(codes.width());
    w.put_u64(codes.len() as u64);
    w.put_u64_slice(codes.words());
    w.put_u64(parity.len() as u64);
    w.put_bytes(parity);
    w.put_u64(stats.corrected);
    w.put_u64(stats.detected_uncorrectable);
    w.put_u64(stats.scrub_passes);
}

fn encode_layer(w: &mut ByteWriter, index: u32, layer: &StoredLayer) {
    encode_layer_with(w, index, layer, layer.codes.stats())
}

/// The pieces of a LAYER payload before reassembly — kept apart so the
/// repair path can rewrite codes/parity while preserving stored stats.
struct LayerParts {
    index: u32,
    rows: usize,
    cols: usize,
    codec: Option<StorageCodec>,
    codes: PackedCodes,
    parity: Vec<u8>,
    stats: EccStats,
}

fn decode_layer(bytes: &[u8]) -> Result<LayerParts, ParseErr> {
    let mut r = ByteReader::new(bytes);
    let index = r.get_u32("layer index")?;
    let rows = r.get_u64("layer rows")? as usize;
    let cols = r.get_u64("layer cols")? as usize;
    let codec = match r.get_u8("layer mode")? {
        0 => None,
        1 => {
            let kind = kind_from_u8(r.get_u8("layer format kind")?)
                .ok_or(ParseErr::Bad("unknown layer format kind"))?;
            let n = r.get_u32("layer format width")?;
            let params = read_params(&mut r)?;
            Some(StorageCodec::from_params(kind, n, params).map_err(ParseErr::Codec)?)
        }
        _ => return Err(ParseErr::Bad("unknown layer mode")),
    };
    let width = r.get_u32("code width")?;
    let len = r.get_u64("code count")? as usize;
    let words = r.get_u64_slice("code words")?;
    let nparity = r.get_count(1, "parity bytes")?;
    let parity = r.get_bytes(nparity, "parity bytes")?;
    let stats = EccStats {
        corrected: r.get_u64("ecc corrected")?,
        detected_uncorrectable: r.get_u64("ecc uncorrectable")?,
        scrub_passes: r.get_u64("ecc scrub_passes")?,
    };
    if !r.is_empty() {
        return Err(ParseErr::Bad("trailing bytes in LAYER payload"));
    }
    let codes = PackedCodes::from_raw_parts(width, len, words)
        .ok_or(ParseErr::Bad("inconsistent code geometry"))?;
    if rows.checked_mul(cols) != Some(len) {
        return Err(ParseErr::Bad("code count does not match rows x cols"));
    }
    Ok(LayerParts {
        index,
        rows,
        cols,
        codec,
        codes,
        parity,
        stats,
    })
}

fn encode_act(w: &mut ByteWriter, act: &ActRecord) {
    w.put_u8(kind_to_u8(act.kind));
    w.put_u32(act.n);
    w.put_f32_slice(&act.maxes);
}

fn decode_act(bytes: &[u8]) -> Result<ActRecord, ParseErr> {
    let mut r = ByteReader::new(bytes);
    let kind =
        kind_from_u8(r.get_u8("act kind")?).ok_or(ParseErr::Bad("unknown act format kind"))?;
    let n = r.get_u32("act width")?;
    let maxes = r.get_f32_slice("act maxes")?;
    if !r.is_empty() {
        return Err(ParseErr::Bad("trailing bytes in ACT payload"));
    }
    Ok(ActRecord { kind, n, maxes })
}

/// Bytes of a section header: tag u8 · len u64 · crc32 u32.
const SECTION_HEADER: usize = 13;

/// Append one section to `w`: a header, the payload `put_payload`
/// writes straight after it, then the payload's length and CRC patched
/// into the header — no payload is staged in a buffer of its own.
fn put_section(w: &mut ByteWriter, tag: u8, put_payload: impl FnOnce(&mut ByteWriter)) {
    let start = w.len();
    w.put_u8(tag);
    w.put_bytes(&[0; SECTION_HEADER - 1]);
    put_payload(w);
    let payload = &w.as_bytes()[start + SECTION_HEADER..];
    let (len, crc) = (payload.len() as u64, crc32(payload));
    w.patch(start + 1, &len.to_le_bytes());
    w.patch(start + 9, &crc.to_le_bytes());
}

/// Magic, version and the SPEC section: the part of a container that is
/// per registry (generation and rebuild count live in SPEC).
fn put_head(w: &mut ByteWriter, spec: &SpecRecord) {
    w.put_bytes(CONTAINER_MAGIC);
    w.put_u16(CONTAINER_VERSION);
    put_section(w, TAG_SPEC, |w| encode_spec(w, spec));
}

/// Room for [`put_head`]'s bytes.
fn head_capacity(spec: &SpecRecord) -> usize {
    const FIXED: usize = 10 + SECTION_HEADER + 64;
    FIXED + spec.id.len() + spec.family.len() + spec.format_label.len() + 8 * spec.dims.len()
}

/// The LAYER sections, the ACT section if any, and END.
fn put_body(w: &mut ByteWriter, layers: &[StoredLayer], act: Option<&ActRecord>) {
    for (i, layer) in layers.iter().enumerate() {
        put_section(w, TAG_LAYER, |w| encode_layer(w, i as u32, layer));
    }
    if let Some(act) = act {
        put_section(w, TAG_ACT, |w| encode_act(w, act));
    }
    put_section(w, TAG_END, |_| {});
}

/// Room for [`put_body`]'s bytes: each layer's words and parity plus
/// a bound on its fixed fields, the ACT ranges, and END.
fn body_capacity(layers: &[StoredLayer], act: Option<&ActRecord>) -> usize {
    const LAYER_FIXED: usize = SECTION_HEADER + 96;
    let layers: usize = layers
        .iter()
        .map(|l| LAYER_FIXED + 9 * l.codes.raw_words())
        .sum();
    let act = act.map_or(0, |a| SECTION_HEADER + 13 + 4 * a.maxes.len());
    layers + act + SECTION_HEADER
}

/// A container's per-snapshot body: its LAYER sections, the ACT
/// section if any, and the END marker, CRCs included — every byte after
/// the SPEC section. Registries that publish the same unprotected
/// snapshot store the same body behind their own head (magic, version
/// and a SPEC section with their own generation), so one encoded body
/// serves them all ([`write_container_body`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerBody {
    bytes: Vec<u8>,
}

impl ContainerBody {
    /// Encode the body of a container holding `layers` and `act`.
    pub fn encode(layers: &[StoredLayer], act: Option<&ActRecord>) -> ContainerBody {
        let mut w = ByteWriter::with_capacity(body_capacity(layers, act));
        put_body(&mut w, layers, act);
        ContainerBody {
            bytes: w.into_bytes(),
        }
    }

    /// The encoded sections.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Serialize a variant to container bytes, into one buffer sized up
/// front.
pub fn encode_container(v: &StoredVariant) -> Vec<u8> {
    let act = v.act.as_ref();
    let mut w = ByteWriter::with_capacity(head_capacity(&v.spec) + body_capacity(&v.layers, act));
    put_head(&mut w, &v.spec);
    put_body(&mut w, &v.layers, act);
    w.into_bytes()
}

/// Parse container bytes. `path` is used only for error reporting.
///
/// # Errors
///
/// Every malformation maps to a typed [`StoreError`]: wrong magic,
/// any version but [`CONTAINER_VERSION`], truncation mid-section, CRC
/// failures the SEC-DED repair could not resolve, or payloads
/// describing impossible objects.
pub fn decode_container(
    bytes: &[u8],
    path: &Path,
) -> Result<(StoredVariant, ReadReport), StoreError> {
    let truncated = |context: &str| StoreError::Truncated {
        path: path.to_path_buf(),
        context: context.to_string(),
    };
    let malformed = |context: String| StoreError::Malformed {
        path: path.to_path_buf(),
        context,
    };
    if bytes.len() < CONTAINER_MAGIC.len() + 2 {
        return Err(truncated("file header"));
    }
    if &bytes[..8] != CONTAINER_MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
            expected: CONTAINER_MAGIC,
        });
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != CONTAINER_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: CONTAINER_VERSION,
        });
    }
    let mut report = ReadReport::default();
    let mut spec: Option<SpecRecord> = None;
    let mut layers: Vec<StoredLayer> = Vec::new();
    let mut act: Option<ActRecord> = None;
    let mut pos = 10usize;
    loop {
        if pos >= bytes.len() {
            // Ran out of bytes before the END marker: a torn write.
            return Err(truncated("missing END section"));
        }
        let tag = bytes[pos];
        if bytes.len() - pos < 13 {
            return Err(truncated("section header"));
        }
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().expect("4 bytes"));
        let body_start = pos + 13;
        if len > (bytes.len() - body_start) as u64 {
            return Err(truncated("section payload"));
        }
        let payload = &bytes[body_start..body_start + len as usize];
        pos = body_start + len as usize;
        let crc_ok = crc32(payload) == stored_crc;
        match tag {
            TAG_SPEC => {
                if !crc_ok {
                    return Err(StoreError::Corrupt {
                        path: path.to_path_buf(),
                        context: "SPEC section failed its CRC".to_string(),
                    });
                }
                if spec.is_some() {
                    return Err(malformed("duplicate SPEC section".to_string()));
                }
                spec = Some(decode_spec(payload).map_err(|e| malformed(e.context()))?);
            }
            TAG_LAYER => {
                let parts = match decode_layer(payload) {
                    Ok(parts) => parts,
                    Err(e) if crc_ok => return Err(malformed(e.context())),
                    // CRC already failed and the bytes don't even parse:
                    // nothing the ECC can do.
                    Err(_) => {
                        return Err(StoreError::Corrupt {
                            path: path.to_path_buf(),
                            context: format!("LAYER section {} failed its CRC", layers.len()),
                        })
                    }
                };
                if parts.index as usize != layers.len() {
                    return Err(malformed(format!(
                        "LAYER index {} out of order (expected {})",
                        parts.index,
                        layers.len()
                    )));
                }
                let codes = ProtectedCodes::from_parts(parts.codes, parts.parity, parts.stats)
                    .ok_or_else(|| malformed("parity length mismatch".to_string()))?;
                let mut layer = StoredLayer {
                    rows: parts.rows,
                    cols: parts.cols,
                    codec: parts.codec,
                    codes,
                };
                if !crc_ok {
                    // Second chance: the payload is SEC-DED protected
                    // storage. Scrub it, then demand the repaired image
                    // reproduce the stored CRC exactly.
                    let scrub = layer.codes.scrub();
                    let mut repaired = ByteWriter::new();
                    encode_layer_with(&mut repaired, parts.index, &layer, parts.stats);
                    if scrub.corrected == 0 || crc32(repaired.as_bytes()) != stored_crc {
                        return Err(StoreError::Corrupt {
                            path: path.to_path_buf(),
                            context: format!(
                                "LAYER section {} failed its CRC and SEC-DED repair \
                                 could not restore it",
                                parts.index
                            ),
                        });
                    }
                    report.sections_repaired += 1;
                    report.words_corrected += scrub.corrected;
                }
                layers.push(layer);
            }
            TAG_ACT => {
                if !crc_ok {
                    return Err(StoreError::Corrupt {
                        path: path.to_path_buf(),
                        context: "ACT section failed its CRC".to_string(),
                    });
                }
                if act.is_some() {
                    return Err(malformed("duplicate ACT section".to_string()));
                }
                act = Some(decode_act(payload).map_err(|e| malformed(e.context()))?);
            }
            TAG_END => {
                if !crc_ok {
                    return Err(StoreError::Corrupt {
                        path: path.to_path_buf(),
                        context: "END section failed its CRC".to_string(),
                    });
                }
                if pos != bytes.len() {
                    return Err(malformed("trailing bytes after END section".to_string()));
                }
                break;
            }
            other => return Err(malformed(format!("unknown section tag {other}"))),
        }
    }
    let spec = spec.ok_or_else(|| malformed("container has no SPEC section".to_string()))?;
    if layers.is_empty() {
        return Err(malformed("container has no LAYER sections".to_string()));
    }
    if layers.len() != spec.dims.len() - 1 {
        return Err(malformed(format!(
            "{} LAYER sections but dims describe {} layers",
            layers.len(),
            spec.dims.len() - 1
        )));
    }
    for (l, layer) in layers.iter().enumerate() {
        if layer.rows != spec.dims[l] || layer.cols != spec.dims[l + 1] {
            return Err(malformed(format!(
                "LAYER {l} is {}x{} but dims say {}x{}",
                layer.rows,
                layer.cols,
                spec.dims[l],
                spec.dims[l + 1]
            )));
        }
    }
    if let Some(act) = &act {
        if act.maxes.len() != layers.len() {
            return Err(malformed(format!(
                "ACT carries {} ranges for {} layers",
                act.maxes.len(),
                layers.len()
            )));
        }
    }
    Ok((StoredVariant { spec, layers, act }, report))
}

/// Write a container atomically: serialize, write to a `.tmp` sibling,
/// fsync, rename over `path`.
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure.
pub fn write_container(path: &Path, v: &StoredVariant) -> Result<(), StoreError> {
    write_atomically(path, &[&encode_container(v)])
}

/// [`write_container`] for a variant whose body is already encoded: the
/// file is the head built from `spec` followed by `body`, byte for byte
/// the container of the variant `body` was encoded from.
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure.
pub fn write_container_body(
    path: &Path,
    spec: &SpecRecord,
    body: &ContainerBody,
) -> Result<(), StoreError> {
    let mut head = ByteWriter::with_capacity(head_capacity(spec));
    put_head(&mut head, spec);
    write_atomically(path, &[head.as_bytes(), body.as_bytes()])
}

/// Write `parts` back to back to a `.tmp` sibling of `path`, fsync it
/// and rename it over `path`.
fn write_atomically(path: &Path, parts: &[&[u8]]) -> Result<(), StoreError> {
    let tmp = path.with_extension("afc.tmp");
    let ctx = |what: &str| format!("{what} {}", tmp.display());
    let mut f = std::fs::File::create(&tmp).map_err(|e| StoreError::io(ctx("creating"), e))?;
    for part in parts {
        f.write_all(part)
            .map_err(|e| StoreError::io(ctx("writing"), e))?;
    }
    f.sync_all()
        .map_err(|e| StoreError::io(ctx("syncing"), e))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| StoreError::io(format!("renaming into {}", path.display()), e))?;
    Ok(())
}

/// Read and parse a container file.
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read; any
/// [`decode_container`] error for bad contents.
pub fn read_container(path: &Path) -> Result<(StoredVariant, ReadReport), StoreError> {
    let bytes = std::fs::read(path)
        .map_err(|e| StoreError::io(format!("reading container {}", path.display()), e))?;
    decode_container(&bytes, path)
}

/// Pack f32 values into the lossless width-32 code image a raw f32
/// layer (one with no codec) stores, SEC-DED protected like any
/// other layer.
pub fn raw_f32_codes(data: &[f32]) -> ProtectedCodes {
    // Two codes per word, the first in the low half — the layout
    // `PackedCodes::push` builds one code at a time.
    let words = data
        .chunks(2)
        .map(|pair| {
            let hi = pair.get(1).map_or(0, |v| v.to_bits() as u64);
            pair[0].to_bits() as u64 | hi << 32
        })
        .collect();
    let packed =
        PackedCodes::from_raw_parts(32, data.len(), words).expect("two 32-bit codes per word");
    ProtectedCodes::protect(packed)
}

impl StoredLayer {
    /// Check that the codes are packed at the word size the layer's
    /// encoding reads: 32 bits for raw f32, the codec's width for a
    /// coded layer. A CRC-valid container can still pack them at
    /// another width, so every reader of stored codes runs this first.
    ///
    /// # Errors
    ///
    /// The mismatch, as a message for the caller's typed error.
    pub fn check_width(&self) -> Result<(), String> {
        let want = self.codec.as_ref().map_or(32, StorageCodec::width);
        let width = self.codes.codes().width();
        if width != want {
            return Err(format!(
                "code width {width} disagrees with format width {want}"
            ));
        }
        Ok(())
    }

    /// Decode this layer's (ECC-corrected) codes back to the served f32
    /// values, under the hardened policy. Returns the values and what
    /// the read found: single-bit errors corrected on the fly,
    /// uncorrectable words passed through raw.
    ///
    /// # Errors
    ///
    /// As [`check_width`](Self::check_width).
    pub fn decode_values(&self) -> Result<(Vec<f32>, ScrubReport), String> {
        self.check_width()?;
        let (snapshot, report) = self.codes.decode();
        let vals = match &self.codec {
            None => snapshot.iter().map(|c| f32::from_bits(c as u32)).collect(),
            Some(codec) => codec.decode_slice(&snapshot, DecodePolicy::Harden).0,
        };
        Ok((vals, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_variant() -> StoredVariant {
        let w0: Vec<f32> = (0..48)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.02)
            .collect();
        let w1: Vec<f32> = (0..24)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.015)
            .collect();
        let kind = FormatKind::AdaptivFloat;
        let fit = |data: &[f32]| StorageCodec::fit(kind, 8, data).unwrap();
        let (c0, c1) = (fit(&w0), fit(&w1));
        let layer = |codec: StorageCodec, data: &[f32], rows: usize, cols: usize| StoredLayer {
            rows,
            cols,
            codes: ProtectedCodes::protect(codec.encode_slice(data)),
            codec: Some(codec),
        };
        StoredVariant {
            spec: SpecRecord {
                id: "resnet/adaptivfloat8".to_string(),
                family: "ResNet".to_string(),
                dims: vec![8, 6, 4],
                seed: 42,
                weight_format: Some((kind, 8)),
                act_format: Some((kind, 8)),
                protected: true,
                fused: false,
                format_label: "AdaptivFloat<8,3>+secded".to_string(),
                generation: 3,
                rebuilds: 1,
            },
            layers: vec![layer(c0, &w0, 8, 6), layer(c1, &w1, 6, 4)],
            act: Some(ActRecord {
                kind,
                n: 8,
                maxes: vec![1.75, 0.9],
            }),
        }
    }

    #[test]
    fn container_roundtrips_exactly() {
        let v = sample_variant();
        let bytes = encode_container(&v);
        let (back, report) = decode_container(&bytes, Path::new("mem")).unwrap();
        assert_eq!(back, v);
        assert_eq!(report, ReadReport::default());
        // Decoded values are bit-identical to what the source codes
        // decode to.
        for (l, layer) in v.layers.iter().enumerate() {
            let (vals, read) = back.layers[l].decode_values().unwrap();
            assert_eq!(read.corrected, 0);
            let (want, _) = layer.decode_values().unwrap();
            assert_eq!(
                vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    fn spec_payload_len(spec: &SpecRecord) -> usize {
        let mut w = ByteWriter::new();
        encode_spec(&mut w, spec);
        w.len()
    }

    /// FNV-1a over `bytes`: a fixed fingerprint for pinning images.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn container_image_is_pinned() {
        // The sample's bytes as the one-buffer-per-section encoder
        // wrote them; the format must not move under a faster encoder.
        let bytes = encode_container(&sample_variant());
        assert_eq!(bytes.len(), 475);
        assert_eq!(fnv1a(&bytes), 0x652d_d308_7593_35b2);
    }

    #[test]
    fn head_and_shared_body_compose_the_container() {
        let mut v = sample_variant();
        let body = ContainerBody::encode(&v.layers, v.act.as_ref());
        let dir = std::env::temp_dir().join(format!("af-body-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // One body under two heads (different generations), as two
        // registries publishing one snapshot write it.
        for generation in [3, 8] {
            v.spec.generation = generation;
            let whole = encode_container(&v);
            assert!(whole.ends_with(body.as_bytes()));
            let path = dir.join(format!("g{generation}.afc"));
            write_container_body(&path, &v.spec, &body).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), whole);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_f32_codes_pack_like_push() {
        let data: Vec<f32> = (0..7).map(|i| i as f32 * -1.25 + 0.5).collect();
        for len in 0..=data.len() {
            let mut want = PackedCodes::new(32);
            for v in &data[..len] {
                want.push(v.to_bits() as u64);
            }
            assert_eq!(raw_f32_codes(&data[..len]), ProtectedCodes::protect(want));
        }
    }

    #[test]
    fn raw_f32_layers_roundtrip_bit_exactly() {
        let data = vec![1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e-30, -7.0];
        let mut v = sample_variant();
        v.spec.dims = vec![5, 1];
        v.spec.weight_format = None;
        v.spec.act_format = None;
        v.act = None;
        v.layers = vec![StoredLayer {
            rows: 5,
            cols: 1,
            codec: None,
            codes: raw_f32_codes(&data),
        }];
        let bytes = encode_container(&v);
        let (back, _) = decode_container(&bytes, Path::new("mem")).unwrap();
        let (vals, _) = back.layers[0].decode_values().unwrap();
        assert_eq!(
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_truncation_point_fails_typed() {
        let bytes = encode_container(&sample_variant());
        for cut in 0..bytes.len() {
            let err = decode_container(&bytes[..cut], Path::new("mem")).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::Corrupt { .. }
                        | StoreError::Malformed { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn flipped_spec_byte_is_corrupt_not_panic() {
        let v = sample_variant();
        let clean = encode_container(&v);
        // Find the SPEC payload (starts right after header + section hdr).
        let spec_body = 10 + 13;
        let mut bent = clean.clone();
        bent[spec_body + 4] ^= 0x10;
        let err = decode_container(&bent, Path::new("mem")).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    #[test]
    fn single_bit_flip_in_layer_codes_is_ecc_repaired() {
        let v = sample_variant();
        let clean = encode_container(&v);
        // Locate the first LAYER section: header(10) + SPEC section.
        let spec_len = spec_payload_len(&v.spec);
        let layer_hdr = 10 + 13 + spec_len;
        assert_eq!(clean[layer_hdr], TAG_LAYER);
        let layer_body = layer_hdr + 13;
        // The code words start after index(4)+rows(8)+cols(8)+mode(1)+
        // kind(1)+n(4)+params tag(1)+exp_bias(4)+width(4)+count(8)+
        // wordcount(8) = 51 bytes into the payload.
        let word_off = layer_body + 51;
        let mut bent = clean.clone();
        bent[word_off + 2] ^= 0x04; // one bit inside a protected word
        let (back, report) = decode_container(&bent, Path::new("mem")).unwrap();
        assert_eq!(report.sections_repaired, 1);
        assert_eq!(report.words_corrected, 1);
        // The repaired layer decodes to exactly the clean values, and its
        // ECC history now records the correction.
        let (want, _) = v.layers[0].decode_values().unwrap();
        let (got, read) = back.layers[0].decode_values().unwrap();
        assert_eq!(
            read.corrected, 0,
            "repair happened at read time, not decode"
        );
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.layers[0].codes.stats().corrected, 1);
    }

    #[test]
    fn double_flip_in_one_word_is_corrupt() {
        let v = sample_variant();
        let clean = encode_container(&v);
        let spec_len = spec_payload_len(&v.spec);
        let word_off = 10 + 13 + spec_len + 13 + 51;
        let mut bent = clean.clone();
        bent[word_off] ^= 0x21; // two bits in the same protected word
        let err = decode_container(&bent, Path::new("mem")).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    #[test]
    fn wrong_magic_and_future_version_fail_typed() {
        let mut bytes = encode_container(&sample_variant());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            decode_container(&wrong, Path::new("mem"))
                .unwrap_err()
                .kind(),
            "bad_magic"
        );
        bytes[8] = 0xFF; // version 0xFF??
        assert_eq!(
            decode_container(&bytes, Path::new("mem"))
                .unwrap_err()
                .kind(),
            "unsupported_version"
        );
    }

    #[test]
    fn older_versions_fail_typed() {
        // Version 0 was never written; version 1 carried three build
        // counters in SPEC that this build no longer parses. A flipped
        // low version bit must not slip a file through unrepaired.
        for old in [0u16, 1] {
            let mut bytes = encode_container(&sample_variant());
            bytes[8..10].copy_from_slice(&old.to_le_bytes());
            let err = decode_container(&bytes, Path::new("mem")).unwrap_err();
            assert_eq!(err.kind(), "unsupported_version", "version {old}");
        }
    }

    #[test]
    fn trailing_bytes_after_end_are_rejected() {
        let mut bytes = encode_container(&sample_variant());
        bytes.push(0);
        assert_eq!(
            decode_container(&bytes, Path::new("mem"))
                .unwrap_err()
                .kind(),
            "malformed"
        );
    }

    #[test]
    fn params_roundtrip_every_variant() {
        for params in [
            PlanParams::AdaptivFloat { exp_bias: -7 },
            PlanParams::Bfp {
                shared_exp: Some(3),
            },
            PlanParams::Bfp { shared_exp: None },
            PlanParams::Uniform { scale: 0.031_25 },
            PlanParams::Static,
            PlanParams::PerBlock,
        ] {
            let mut w = ByteWriter::new();
            write_params(&mut w, &params);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = read_params(&mut r).ok().unwrap();
            assert_eq!(back, params);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn codec_params_survive_disk_for_calibrated_stats() {
        // A Bfp codec fitted on data whose plan params pass through the
        // container must decode identically after the roundtrip.
        let data: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.11).collect();
        let codec = StorageCodec::fit(FormatKind::Bfp, 8, &data).unwrap();
        let mut w = ByteWriter::new();
        write_params(&mut w, &codec.params());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let params = read_params(&mut r).ok().unwrap();
        let rebuilt = StorageCodec::from_params(FormatKind::Bfp, 8, params).unwrap();
        let packed = codec.encode_slice(&data);
        let (a, _) = codec.decode_slice(&packed, DecodePolicy::Harden);
        let (b, _) = rebuilt.decode_slice(&packed, DecodePolicy::Harden);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
