//! `store_inspect`: dump a container, WAL, or store root as JSON.
//!
//! ```text
//! store_inspect <path>
//! ```
//!
//! `<path>` may be a `.afc` container file, a `wal.log`, or a store
//! root directory (anything holding a `CURRENT`/`wal.log`/`variants/`
//! layout). Parse failures print a typed-error JSON object and exit 1 —
//! corrupt input never panics the tool.

use std::path::Path;
use std::process::ExitCode;

use af_store::{container_file_name, read_container, replay, Store, StoreError, SyncPolicy};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_opt(fmt: Option<(adaptivfloat::FormatKind, u32)>) -> String {
    match fmt {
        None => "null".to_string(),
        Some((kind, n)) => format!("{{\"kind\":\"{}\",\"bits\":{n}}}", kind.label()),
    }
}

fn container_json(path: &Path) -> Result<String, StoreError> {
    let (v, report) = read_container(path)?;
    let spec = &v.spec;
    let mut layers = String::new();
    for (i, layer) in v.layers.iter().enumerate() {
        if i > 0 {
            layers.push(',');
        }
        let stats = layer.codes.stats();
        let mode = match &layer.codec {
            None => "\"raw_f32\"".to_string(),
            Some(codec) => format!(
                "{{\"kind\":\"{}\",\"bits\":{},\"params\":\"{:?}\"}}",
                codec.kind().label(),
                codec.width(),
                codec.params()
            ),
        };
        layers.push_str(&format!(
            "{{\"rows\":{},\"cols\":{},\"mode\":{mode},\"code_width\":{},\
             \"storage_bytes\":{},\"ecc_corrected\":{},\"ecc_uncorrectable\":{},\
             \"scrub_passes\":{}}}",
            layer.rows,
            layer.cols,
            layer.codes.codes().width(),
            layer.codes.storage_bytes(),
            stats.corrected,
            stats.detected_uncorrectable,
            stats.scrub_passes,
        ));
    }
    let act = match &v.act {
        None => "null".to_string(),
        Some(act) => format!(
            "{{\"kind\":\"{}\",\"bits\":{},\"maxes\":{:?}}}",
            act.kind.label(),
            act.n,
            act.maxes
        ),
    };
    Ok(format!(
        "{{\"type\":\"container\",\"path\":\"{}\",\"id\":\"{}\",\"family\":\"{}\",\
         \"dims\":{:?},\"seed\":{},\"weight_format\":{},\"act_format\":{},\
         \"protected\":{},\"fused\":{},\"format_label\":\"{}\",\"generation\":{},\
         \"rebuilds\":{},\"sections_repaired\":{},\"words_corrected\":{},\"layers\":[{layers}],\
         \"act\":{act}}}",
        json_escape(&path.display().to_string()),
        json_escape(&spec.id),
        json_escape(&spec.family),
        spec.dims,
        spec.seed,
        fmt_opt(spec.weight_format),
        fmt_opt(spec.act_format),
        spec.protected,
        spec.fused,
        json_escape(&spec.format_label),
        spec.generation,
        spec.rebuilds,
        report.sections_repaired,
        report.words_corrected,
    ))
}

fn wal_json(path: &Path) -> Result<String, StoreError> {
    let rp = replay(path)?;
    let mut records = String::new();
    for (i, rec) in rp.records.iter().enumerate() {
        if i > 0 {
            records.push(',');
        }
        let detail = match &rec.op {
            af_store::WalOp::Register { id, generation } => {
                format!("\"id\":\"{}\",\"generation\":{generation}", json_escape(id))
            }
            af_store::WalOp::Scrub {
                id,
                corrected,
                uncorrectable,
                rebuilt,
                generation,
            } => format!(
                "\"id\":\"{}\",\"corrected\":{corrected},\"uncorrectable\":{uncorrectable},\
                 \"rebuilt\":{rebuilt},\"generation\":{generation}",
                json_escape(id)
            ),
            af_store::WalOp::Swap { id, generation } => {
                format!("\"id\":\"{}\",\"generation\":{generation}", json_escape(id))
            }
            af_store::WalOp::Unregister { id } => {
                format!("\"id\":\"{}\"", json_escape(id))
            }
        };
        records.push_str(&format!(
            "{{\"seq\":{},\"op\":\"{}\",{detail}}}",
            rec.seq,
            rec.op.label()
        ));
    }
    Ok(format!(
        "{{\"type\":\"wal\",\"path\":\"{}\",\"records\":{},\"valid_bytes\":{},\
         \"torn_bytes_dropped\":{},\"next_seq\":{},\"entries\":[{records}]}}",
        json_escape(&path.display().to_string()),
        rp.records.len(),
        rp.valid_bytes,
        rp.torn_bytes_dropped,
        rp.next_seq,
    ))
}

fn root_json(path: &Path) -> Result<String, StoreError> {
    let (store, recovery) = Store::open(path, SyncPolicy::EveryRecord)?;
    let mut variants = String::new();
    for (i, v) in recovery.variants.iter().enumerate() {
        if i > 0 {
            variants.push(',');
        }
        variants.push_str(&format!(
            "{{\"id\":\"{}\",\"file\":\"{}\",\"generation\":{},\"protected\":{},\
             \"fused\":{},\"layers\":{}}}",
            json_escape(&v.spec.id),
            json_escape(&container_file_name(&v.spec.id)),
            v.spec.generation,
            v.spec.protected,
            v.spec.fused,
            v.layers.len(),
        ));
    }
    Ok(format!(
        "{{\"type\":\"store\",\"path\":\"{}\",\"stats\":{},\"variants\":[{variants}]}}",
        json_escape(&path.display().to_string()),
        store.stats().to_json(),
    ))
}

fn run(path: &Path) -> Result<String, StoreError> {
    if path.is_dir() {
        return root_json(path);
    }
    // Sniff the magic to pick container vs WAL.
    let head = std::fs::read(path)
        .map_err(|e| StoreError::io(format!("reading {}", path.display()), e))?;
    if head.starts_with(af_store::WAL_MAGIC) {
        wal_json(path)
    } else {
        container_json(path)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: store_inspect <container.afc | wal.log | store-root>");
        return ExitCode::from(2);
    };
    match run(Path::new(path)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!(
                "{{\"type\":\"error\",\"kind\":\"{}\",\"detail\":\"{}\"}}",
                e.kind(),
                json_escape(&e.to_string())
            );
            ExitCode::FAILURE
        }
    }
}
