#!/usr/bin/env bash
# Snapshot the kernel micro-bench medians into BENCH_kernels.json, the
# fault-injection sweep into BENCH_resilience.json, and the serving
# load test into BENCH_serving.json, then stamp every BENCH_*.json with
# the commit, configured thread count, and host parallelism so a
# snapshot is interpretable after the machine or checkout changes.
#
# Runs the `quantize_kernels` bench twice — once pinned to a single
# thread (AF_NUM_THREADS=1, isolating the kernel speedups) and once with
# the default thread count (adding the scoped-thread fan-out) — then
# assembles the per-bench JSON records the vendored criterion shim emits
# (via AF_BENCH_JSON) into one machine-readable snapshot with the commit
# and thread counts attached.
#
# Usage: scripts/bench_snapshot.sh [bench-name-filter]

set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"
OUT="BENCH_kernels.json"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

run_bench() { # <threads ('' = default)> <records-file>
    AF_NUM_THREADS="$1" AF_BENCH_JSON="$2" \
        cargo bench -q -p af-bench --bench quantize_kernels -- ${FILTER:+"$FILTER"}
}

echo "== single-thread run (AF_NUM_THREADS=1) =="
run_bench 1 "$TMP_DIR/t1.jsonl"
echo
echo "== default-threads run =="
run_bench "" "$TMP_DIR/all.jsonl"

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# A tree with uncommitted changes is not the commit it sits on.
if ! git diff --quiet HEAD 2>/dev/null; then
    COMMIT="$COMMIT-dirty"
fi
HOST_THREADS="$(nproc 2>/dev/null || echo 1)"

COMMIT="$COMMIT" HOST_THREADS="$HOST_THREADS" TMP_DIR="$TMP_DIR" OUT="$OUT" \
python3 - <<'PY'
import json, os

tmp, out = os.environ["TMP_DIR"], os.environ["OUT"]

def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]

t1 = load(os.path.join(tmp, "t1.jsonl"))
allt = load(os.path.join(tmp, "all.jsonl"))

def median_ns(records, name):
    for r in records:
        if r["name"] == name:
            return r["median_ns"]
    return None

fast = median_ns(t1, "adaptivfloat_1m/fast/8")
ref = median_ns(t1, "adaptivfloat_1m/reference/8")
speedup = round(ref / fast, 2) if fast and ref else None

def ratio(records, name_slow, name_fast):
    slow, fast = median_ns(records, name_slow), median_ns(records, name_fast)
    return round(slow / fast, 2) if slow and fast else None

# SIMD-vs-scalar rows from the single-thread run: dispatcher leg is the
# only variable (same plan, same backend, one thread).
simd_speedup_quantize_af8 = ratio(
    t1, "simd_vs_scalar/quantize_adaptivfloat8/scalar",
    "simd_vs_scalar/quantize_adaptivfloat8/simd")
simd_speedup_lut_posit8 = ratio(
    t1, "simd_vs_scalar/quantize_posit8_lut/scalar",
    "simd_vs_scalar/quantize_posit8_lut/simd")
simd_speedup_scan = ratio(
    t1, "simd_vs_scalar/scan_abs/scalar", "simd_vs_scalar/scan_abs/simd")
fused_vs_dequantize_gemm = ratio(
    t1, "packed_gemm/dequantize_dense/8x512x1024",
    "packed_gemm/fused/8x512x1024")

snapshot = {
    "commit": os.environ["COMMIT"],
    "host_threads": int(os.environ["HOST_THREADS"]),
    "single_thread_speedup_adaptivfloat8_1m": speedup,
    "simd_speedup_quantize_af8": simd_speedup_quantize_af8,
    "simd_speedup_lut_posit8": simd_speedup_lut_posit8,
    "simd_speedup_scan_abs": simd_speedup_scan,
    "fused_vs_dequantize_gemm_8x512x1024": fused_vs_dequantize_gemm,
    "runs": [
        {"threads": 1, "benches": t1},
        {"threads": int(os.environ["HOST_THREADS"]), "benches": allt},
    ],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")

print(f"wrote {out} ({len(t1)} + {len(allt)} bench records)")
if speedup is not None:
    print(f"single-thread fast vs reference (AdaptivFloat<8,3>, 1M elems): {speedup}x")
if simd_speedup_quantize_af8 is not None:
    print(f"SIMD vs scalar quantize (AdaptivFloat<8,3>, 64K): {simd_speedup_quantize_af8}x")
if fused_vs_dequantize_gemm is not None:
    print(f"fused vs dequantize+GEMM (8x512x1024): {fused_vs_dequantize_gemm}x")
PY

echo
echo "== resilience snapshot (fault_sweep --quick) =="
# Includes the SEC-DED protected-vs-unprotected sweep ("protected"
# section: end-task metric plus corrected/uncorrectable vs bit BER) and
# the chaos availability sweep ("chaos" section: the same seeded fault
# schedule with circuit breakers on vs off — availability and tail
# latency with degradation unlocked vs requests riding into the fault).
cargo run --release -q -p af-bench --bin fault_sweep -- \
    --quick --out BENCH_resilience.json >/dev/null
echo "wrote BENCH_resilience.json (storage, end_task, protected, chaos sections)"
python3 - <<'PY'
import json

with open("BENCH_resilience.json") as f:
    chaos = json.load(f)["chaos"]
for a in chaos["arms"]:
    assert a["lost"] == 0 and a["duplicated"] == 0, a
    print(f"chaos breakers {'on ' if a['breakers'] else 'off'}: "
          f"availability {a['availability']:.3f}, p99 {a['p99_us']}us, "
          f"{a['breaker_opens']} opens, {a['degraded']} degraded")
PY

echo
echo "== serving snapshot (serve_load) =="
cargo run --release -q -p af-bench --bin serve_load -- \
    --out BENCH_serving.json
echo "wrote BENCH_serving.json"
# Surface the durable-store restart cost next to the serving numbers:
# cold registration (quantize everything from the f32 master) vs
# reopening the persisted store (WAL replay / checkpoint load) — and
# the fleet scaling sweep captured into the "fleet" section.
python3 - <<'PY'
import json

with open("BENCH_serving.json") as f:
    doc = json.load(f)
s = doc.get("store")
if s:
    assert s["bit_identical"] is True, s
    print(f"durable store ({s['variants']} variants): "
          f"cold register {s['cold_register_us']}us, "
          f"warm open wal {s['warm_open_wal_us']}us, "
          f"warm open ckpt {s['warm_open_ckpt_us']}us")
fleet = doc.get("fleet")
if fleet:
    assert fleet["speedup_1_to_max"] >= 3.0, fleet["speedup_1_to_max"]
    points = ", ".join(
        f"{p['shards']} shard(s) {p['throughput_rps']:.0f} rps "
        f"(p99 {p['p99_us']}us)"
        for p in fleet["points"])
    print(f"fleet ({fleet['replicas']} replicas, "
          f"{fleet['connections']} connections): {points} — "
          f"{fleet['speedup_1_to_max']}x aggregate 1 -> "
          f"{fleet['max_shards']} shards")
# The reactor section: the epoll server at each ladder rung. Every rung
# must complete every request — the snapshot is invalid if the event
# loop dropped work.
reactor = doc.get("reactor")
if reactor:
    assert reactor["bit_identical"] is True, reactor
    for c in reactor["ladder"]:
        assert c["failed"] == 0, c
    rungs = ", ".join(
        f"{c['connections']}c {c['throughput_rps']:.0f} rps "
        f"(p99 {c['p99_us']}us, {c['failed']} failed)"
        for c in reactor["ladder"])
    print(f"reactor ladder: {rungs}")
PY

echo
echo "== stamping provenance metadata into BENCH_*.json =="
# Every snapshot records which vector ISA produced it: numbers from an
# AVX2 host and a forced-scalar run are not comparable.
SIMD_JSON="$(cargo run --release -q -p af-bench --bin simd_report)"
COMMIT="$COMMIT" HOST_THREADS="$HOST_THREADS" SIMD_JSON="$SIMD_JSON" \
AF_THREADS="${AF_NUM_THREADS:-}" python3 - <<'PY'
import glob, json, os

meta = {
    "git_sha": os.environ["COMMIT"],
    "af_num_threads": os.environ["AF_THREADS"] or "default",
    "host_parallelism": int(os.environ["HOST_THREADS"]),
}
simd = json.loads(os.environ["SIMD_JSON"])
for path in sorted(glob.glob("BENCH_*.json")):
    with open(path) as f:
        doc = json.load(f)
    doc["meta"] = meta
    doc["simd"] = simd
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"stamped {path} (isa={simd['isa']})")
PY
