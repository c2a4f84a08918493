//! The repository's benchmark: end-to-end and per-layer performance of
//! the serving stack, measured from outside through the public API of
//! each crate. Build and run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs untraced and reports the end-to-end metrics;
//! `--trace 1` splits the window into an untraced half and, after traced
//! setups, a traced half, profiles each layer, and reports the per-layer
//! metrics plus the tracing overhead (traced minus untraced) of every
//! end-to-end metric. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The lines before it give provenance and, per window, the request
//! accounting by phase and cause, latency percentiles with their sample
//! count, and any counter that failed to reconcile.
//!
//! The benchmark's own tests: `cargo test --offline --manifest-path
//! perfbench/Cargo.toml`.

mod bench;
mod catalog;
mod fleet;
mod measure;
mod profile;
mod schedule;
mod tcp;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{run, Metric, RunResult, MAX_LAG_P99_MS, MIN_SAMPLES};
use catalog::Catalog;
use measure::{percentile_of, Tracer};

/// End-to-end metrics, in report order (names and units as in
/// `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("success_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of a traced run, in report order; the traced run
/// also reports `overhead.<name>` for every end-to-end metric.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.latency_samples", "count"),
    ("loadgen.latency_p99_ms", "ms"),
    ("writer.swap_p50_ms", "ms"),
    ("core.act_quant_us", "us"),
    ("tensor.gemm_dense_us", "us"),
    ("tensor.gemm_fused_us", "us"),
    ("tensor.weight_bytes", "bytes"),
    ("models.forward_b1_us", "us"),
    ("models.forward_b16_us", "us"),
    ("serve.registry.register_ms", "ms"),
    ("serve.batcher.mean_batch", "requests"),
    ("serve.batcher.shed", "count"),
    ("serve.batcher.expired", "count"),
    ("serve.batcher.enqueue_us", "us"),
    ("serve.batcher.residence_p50_us", "us"),
    ("serve.batcher.wait_us", "us"),
    ("serve.reactor.healthz_rtt_us", "us"),
    ("serve.http.parse_us", "us"),
    ("serve.reactor.events_per_request", "events"),
    ("fleet.router.infer_us", "us"),
    ("fleet.server.hop_us", "us"),
    ("fleet.hedges", "count"),
    ("fleet.hedge_win_share", "share"),
    ("fleet.failovers", "count"),
    ("fleet.breaker_opens", "count"),
    ("store.open_ms", "ms"),
    ("store.sync_ms", "ms"),
    ("store.wal_bytes_per_swap", "bytes"),
    ("resilience.scrub_ms", "ms"),
    ("resilience.ecc_corrected", "count"),
];

pub const WORKLOADS: [&str; 2] = ["tcp-mixed", "fleet-churn"];

/// Work files of the benchmark (stores, traces), under the directory it
/// runs from.
const WORK_DIR: &str = ".perfbench_work";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a over every file under `crates/` plus `Cargo.lock`: identifies
/// the measured source even where no git metadata is available.
fn source_fingerprint() -> Option<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files).ok()?;
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(&f).ok()?) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    Some(format!("{h:016x}"))
}

fn provenance() -> String {
    let git = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into());
    let env = |k: &str| std::env::var(k).map_or("null".into(), |v| format!("{v:?}"));
    format!(
        "{{\"git_sha\":{:?},\"source_fnv64\":{:?},\"nproc\":{},\"simd\":{},\"AF_NUM_THREADS\":{},\"AF_FORCE_SCALAR\":{}}}",
        git,
        source_fingerprint().unwrap_or_else(|| "unavailable".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        adaptivfloat::simd::report().to_json(),
        env("AF_NUM_THREADS"),
        env("AF_FORCE_SCALAR"),
    )
}

/// A JSON number. A percentile that reaches into failed requests is
/// infinite; it is reported as 1e9 (and the failures show in
/// `failed` and `success_share`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "-1".into()
    } else {
        "1000000000".into()
    }
}

fn report(r: &RunResult) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (label, w) in &r.windows {
        attempted += w.measured.sent;
        failed += w.measured.failed();
        let lag = w.lag_p99_ms();
        let mut lat = w.latencies_ms();
        let valid = w.latencies.len() >= MIN_SAMPLES && lag <= MAX_LAG_P99_MS;
        let engine = w.engine;
        let fleet = w.fleet.map_or("null".into(), |f| {
            format!(
                "{{\"requests\":{},\"completed\":{},\"failed\":{},\"hedges\":{},\"hedge_wins\":{},\"failovers\":{},\"breaker_opens\":{}}}",
                f.requests, f.completed, f.failed, f.hedges, f.hedge_wins, f.failovers, f.breaker_opens
            )
        });
        println!(
            "window {label}: {{\"seconds\":{},\"phases\":{},\"failed_share\":{},\"latency_samples\":{},\
             \"latency_ms\":{{\"p50\":{},\"p99\":{},\"sliced_p50\":{},\"sliced_p99\":{}}},\"lag_p99_ms\":{},\"valid\":{},\
             \"engine\":{{\"received\":{},\"admitted\":{},\"shed\":{},\"expired\":{},\"completed\":{},\"mean_batch\":{}}},\
             \"host_steal_share\":{},\"fleet\":{},\"swaps\":{{\"count\":{},\"p50_ms\":{}}},\"scrub_passes\":{},\"reconciled\":{},\"mismatches\":{:?}}}",
            num(w.seconds),
            w.phases_json(),
            num(w.measured.failed() as f64 / w.measured.sent.max(1) as f64),
            w.latencies.len(),
            num(percentile_of(&mut lat, 0.50)),
            num(percentile_of(&mut lat, 0.99)),
            num(bench::sliced_percentile(w, 0.50)),
            num(bench::sliced_percentile(w, 0.99)),
            num(lag),
            valid,
            engine.received,
            engine.admitted,
            engine.shed,
            engine.expired,
            engine.completed,
            num(engine.mean_batch()),
            num(w.host_steal_share),
            fleet,
            w.swaps_ms.len(),
            num(measure::median(&mut w.swaps_ms.clone())),
            w.scrubs.passes,
            w.mismatches.is_empty(),
            w.mismatches,
        );
        if !valid {
            eprintln!(
                "perfbench: window {label} is invalid: {} samples (need {MIN_SAMPLES}), send lag p99 {lag:.3} ms (limit {MAX_LAG_P99_MS})",
                w.latencies.len()
            );
        }
        for m in &w.mismatches {
            eprintln!("perfbench: window {label}: counters do not reconcile: {m}");
        }
    }
    let setups: Vec<String> = r.setups_s.iter().map(|s| num(*s)).collect();
    println!("setups_s: [{}]", setups.join(","));
    (attempted, failed)
}

fn final_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    names: &[String],
) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|name| {
            let m = metrics
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not produced"));
            format!(
                "{:?}:{{\"value\":{},\"unit\":{:?}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    println!("provenance: {}", provenance());
    let work = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create work directory");
    let tracer = Tracer::new(true);
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = match args.workload.as_str() {
        "tcp-mixed" => {
            let catalog = Catalog::build(catalog::tcp_mixed(), seed);
            run(
                &tcp::TcpMixed {
                    catalog,
                    seed,
                    work: work.clone(),
                },
                seconds,
                trace,
                &tracer,
            )
        }
        _ => {
            let catalog = Catalog::build(catalog::fleet_churn(), seed);
            run(
                &fleet::FleetChurn {
                    catalog,
                    seed,
                    work: work.clone(),
                },
                seconds,
                trace,
                &tracer,
            )
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let (attempted, failed) = report(&result);
    let profile_wrong = profile::wrong_bits();
    if profile_wrong > 0 {
        eprintln!("perfbench: {profile_wrong} profile replies differed from the reference");
    }
    let correct = result.correct && profile_wrong == 0;
    let names: Vec<String> = if trace {
        let path = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", args.workload));
        std::fs::write(&path, tracer.jsonl()).expect("write trace");
        println!(
            "trace: {} spans written to {}",
            tracer.cursor() - 1,
            path.display()
        );
        PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(END_TO_END.iter().map(|(n, _)| format!("overhead.{n}")))
            .collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    for name in &names {
        if let Some(m) = result.metrics.iter().find(|m| &m.name == name) {
            println!("metric {} = {} {}", m.name, num(m.value), m.unit);
        }
    }
    println!(
        "{}",
        final_line(correct, attempted, failed, &result.metrics, &names)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        for (name, unit) in END_TO_END {
            let needle = format!("\"name\": \"overhead.{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "overhead.{name} missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} missing"
            );
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() * 2 + PER_LAYER.len()
        );
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let metrics = vec![
            bench::metric("a", 1.5, "ms"),
            bench::metric("b", f64::INFINITY, "ms"),
        ];
        let line = final_line(true, 10, 0, &metrics, &["a".into(), "b".into()]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":1000000000,\"unit\":\"ms\"}}}"
        );
    }
}
