#!/usr/bin/env bash
# The repo's CI gate: formatting, lints, the full test suite, and a
# quick fault_sweep smoke run that checks the emitted JSON is sound.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy --workspace (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== plan API boundary (no backend internals outside crates/core) =="
# Everything downstream must quantize through NumberFormat::plan /
# QuantPlan; reaching for the LUT or kernel entry points directly skips
# the planner's backend choice and its bit-identity guarantees. The
# cache-observability surface (lut::prewarm, lut::write_lock_acquisitions,
# lut::is_warm) stays fair game.
if grep -rnE "lut::(quantize_slice|cached|lookup)|LutQuantizer|kernels::|FastQuantizer" \
    crates --include="*.rs" | grep -v "^crates/core/"; then
    echo "error: backend internals referenced outside crates/core (use NumberFormat::plan)" >&2
    exit 1
fi
echo "ok: no backend internals outside crates/core"

echo "== no sleeps on the admission or reactor path =="
# Faults enter through Engine::inject_fault and a delay acts on the
# sick shard's compute worker. The threads that admit requests (the
# reactor, the fleet router) must never sleep: one slow shard would
# stall every connection behind it.
if grep -nE "thread::sleep" \
    crates/serve/src/{reactor,server,http,timer}.rs \
    crates/fleet/src/{router,server,shard}.rs; then
    echo "error: thread::sleep on the admission/reactor path (inject a delay fault instead)" >&2
    exit 1
fi
echo "ok: no sleeps on the admission or reactor path"

echo "== cargo test =="
cargo test --workspace -q

echo "== slow proptest leg (PROPTEST_CASES=4096) =="
# The parsers that face untrusted bytes (the .afc container, the WAL
# and the HTTP request parser) and the format properties, at 64x the
# default case count: rare inputs such as a single flipped version bit
# show up only in long runs.
PROPTEST_CASES=4096 cargo test -q -p af-store --test corrupt_parse
PROPTEST_CASES=4096 cargo test -q -p af-serve --test http_parser_props
PROPTEST_CASES=4096 cargo test -q --test format_properties

echo "== perfbench tests =="
# The benchmark is a stand-alone package outside the workspace; its own
# tests include the check that its metric lists match BENCHMARK.json.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== bit-identity under AF_NUM_THREADS=1 =="
# The batched-equals-per-sample and plan-equals-every-backend invariants
# must hold at any thread count; re-run the pinning tests with the
# runtime forced to a single thread.
AF_NUM_THREADS=1 cargo test -q -p adaptivfloat --test plan_matches_backends
# The codebooks against the analytic quantizers and scalar encoders, and
# a warmed serve path that never takes the codebook cache's write lock.
AF_NUM_THREADS=1 cargo test -q -p adaptivfloat --test lut_matches_analytic
AF_NUM_THREADS=1 cargo test -q -p adaptivfloat --test lut_direct_index
AF_NUM_THREADS=1 cargo test -q -p adaptivfloat --test lut_prewarm
AF_NUM_THREADS=1 cargo test -q -p af-models --test frozen_batch
AF_NUM_THREADS=1 cargo test -q -p af-models --test alloc_regression
AF_NUM_THREADS=1 cargo test -q -p af-models --test fused_gemm
# Both GEMMs share one microkernel; each must still equal the naive
# ascending-k loop when the row split runs serial.
AF_NUM_THREADS=1 cargo test -q -p af-tensor --test gemm_oracle
AF_NUM_THREADS=1 cargo test -q -p adaptivfloat --test codec_equivalence
AF_NUM_THREADS=1 cargo test -q --test serve_e2e
# Variants built from a resident FP32 twin equal cold builds bit for bit.
AF_NUM_THREADS=1 cargo test -q -p af-serve --test checkpoint_reuse
# Registered variants store the pinned container bytes.
AF_NUM_THREADS=1 cargo test -q -p af-serve --test pinned_containers
# Each weight is resident once per variant, and replicas share one
# snapshot while owning their storage.
AF_NUM_THREADS=1 cargo test -q -p af-serve --test resident_bytes
AF_NUM_THREADS=1 cargo test -q -p af-fleet --test replica_independence
# Every replica's container on disk is its shard's export, byte for byte.
AF_NUM_THREADS=1 cargo test -q -p af-fleet --test replica_containers
# The reactor front end must also hold with the runtime forced serial
# (one compute thread under the event loop — replies still wake it).
AF_NUM_THREADS=1 cargo test -q --test fleet_e2e
# The supervisor/scrubber/self-healing paths must also hold when the
# runtime is forced serial (panic propagation takes the serial path).
AF_NUM_THREADS=1 cargo test -q --test serve_selfheal_e2e
# Crash recovery must stay bit-identical with the runtime forced serial.
AF_NUM_THREADS=1 cargo test -q --test store_e2e

echo "== bit-identity under AF_FORCE_SCALAR=1 =="
# Every SIMD path must be bit-identical to its scalar twin, and every
# consumer result must be independent of which leg the dispatcher picks.
# Run the pinning suites on both legs: the default run above covered the
# vector leg; this one forces the scalar fallbacks.
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test simd_bitexact
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test kernel_bit_exact
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test plan_matches_backends
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test lut_matches_analytic
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test lut_direct_index
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test lut_prewarm
AF_FORCE_SCALAR=1 cargo test -q -p af-tensor --lib
AF_FORCE_SCALAR=1 cargo test -q -p af-tensor --test packed_gemm
AF_FORCE_SCALAR=1 cargo test -q -p af-tensor --test gemm_oracle
AF_FORCE_SCALAR=1 cargo test -q -p af-models --test fused_gemm
AF_FORCE_SCALAR=1 cargo test -q -p adaptivfloat --test codec_equivalence
AF_FORCE_SCALAR=1 cargo test -q --test serve_e2e
AF_FORCE_SCALAR=1 cargo test -q -p af-serve --test checkpoint_reuse
AF_FORCE_SCALAR=1 cargo test -q -p af-serve --test pinned_containers
AF_FORCE_SCALAR=1 cargo test -q -p af-serve --test resident_bytes
AF_FORCE_SCALAR=1 cargo test -q -p af-fleet --test replica_independence

echo "== fault_sweep smoke (--quick) =="
TMP_DIR="$(mktemp -d)"
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null; rm -rf "$TMP_DIR"' EXIT
cargo run --release -q -p af-bench --bin fault_sweep -- \
    --quick --out "$TMP_DIR/BENCH_resilience.json" >/dev/null
# The same section checks run on the fresh sweep and on the committed
# snapshot, so a committed file that lacks a section CI asserts on
# fails here rather than going stale.
for RES_JSON in "$TMP_DIR/BENCH_resilience.json" BENCH_resilience.json; do
python3 - "$RES_JSON" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "fault_sweep", doc.get("bench")
assert doc["storage"], "no storage cells"
assert doc["end_task"], "no end-task cells"
zero = [c for c in doc["storage"] if c["rate"] == 0]
assert zero and all(c["faults_injected"] == 0 for c in zero)
# The SEC-DED protected sweep must show the ECC actually working: at a
# nonzero BER the protected arms correct words, the unprotected arms
# report no ECC activity, and any uncorrectable words are counted
# (never silently dropped).
prot = doc["protected"]
assert prot, "no protected cells"
hot = [c for c in prot if c["protected"] and c["ber"] >= 1e-3]
assert hot and all(c["corrected"] > 0 for c in hot), "SEC-DED never corrected"
bare = [c for c in prot if not c["protected"]]
assert bare and all(c["corrected"] == 0 and c["uncorrectable"] == 0 for c in bare)
assert all(c["uncorrectable"] >= 0 for c in prot)
# The chaos availability sweep: same seeded fault schedule with circuit
# breakers on vs off. Breakers must buy strictly higher availability (an
# open circuit unlocks degraded serving from the off-ring holder), no
# arm may lose or duplicate a reply, and nothing may serve wrong bits.
chaos = doc["chaos"]
on = next(a for a in chaos["arms"] if a["breakers"])
off = next(a for a in chaos["arms"] if not a["breakers"])
assert on["availability"] > off["availability"], (on, off)
assert on["breaker_opens"] >= 1 and on["degraded"] > 0, on
assert off["breaker_opens"] == 0, off
for a in chaos["arms"]:
    assert a["lost"] == 0 and a["duplicated"] == 0, a
    assert a["mismatched"] == 0 and a["recovered_bit_identical"] is True, a
    assert a["sent"] == a["ok"] + a["failed"], a
print(
    f"ok: {len(doc['storage'])} storage cells, {len(doc['end_task'])} end-task cells, "
    f"{len(prot)} protected cells "
    f"({sum(c['corrected'] for c in prot)} corrected, "
    f"{sum(c['uncorrectable'] for c in prot)} uncorrectable), "
    f"chaos availability {on['availability']:.3f} (breakers) vs {off['availability']:.3f}"
)
PY
done

echo "== serve_load smoke (--quick) =="
cargo run --release -q -p af-bench --bin serve_load -- \
    --quick --out "$TMP_DIR/BENCH_serving.json" >/dev/null
# Fresh quick run and committed snapshot, same section checks.
for SERVING_JSON in "$TMP_DIR/BENCH_serving.json" BENCH_serving.json; do
python3 - "$SERVING_JSON" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "serve_load", doc.get("bench")
assert doc["cells"], "no serving cells"
for c in doc["cells"]:
    assert c["completed"] > 0, c
    # Every timed request is either answered or shed; the untimed
    # bit-identity probe is not counted.
    assert c["completed"] + c["shed"] == c["requests"], c
    assert c["p50_us"] <= c["p95_us"] <= c["p99_us"], c
# The fused packed-GEMM comparison pair must be present, and the fused
# twin must actually stream packed weight bytes (< its dense twin).
fused = [c for c in doc["cells"] if c["fused"]]
assert fused, "no fused-GEMM cells in quick serving run"
for f in fused:
    # The twin is the same model served dense: the variant id without
    # its "-fused" suffix (weight format alone would pair a wide fused
    # model with a narrow dense one).
    assert f["variant"].endswith("-fused"), f["variant"]
    dense = [
        c for c in doc["cells"]
        if not c["fused"] and c["variant"] == f["variant"][: -len("-fused")]
        and c["max_batch"] == f["max_batch"]
    ]
    assert dense, f"no dense twin for {f['variant']}"
    assert f["weight_bytes"] * 3 < dense[0]["weight_bytes"], (
        f"fused weight bytes not reduced: {f['weight_bytes']} vs "
        f"{dense[0]['weight_bytes']}"
    )
# The durable-store timing section: recovery happened, bit-identically.
store = doc["store"]
assert store["bit_identical"] is True, store
assert store["variants"] >= 3, store
assert store["cold_register_us"] > 0, store
assert store["warm_open_wal_us"] > 0, store
assert store["warm_open_ckpt_us"] > 0, store
# The fleet scaling sweep: aggregate throughput must scale with shard
# count (every shard is capped at one compute slot, so scaling can only
# come from routing across shards), with zero failed requests.
fleet = doc["fleet"]
assert fleet["points"], "no fleet scaling points"
assert fleet["points"][0]["shards"] == 1, fleet["points"][0]
assert fleet["points"][-1]["shards"] == fleet["max_shards"], fleet["points"][-1]
assert fleet["speedup_1_to_max"] >= 3.0, (
    f"fleet throughput scaled only {fleet['speedup_1_to_max']}x "
    f"from 1 -> {fleet['max_shards']} shards"
)
# The per-pass service time is a modelled sleep, which scales past the
# host's cores; the section must say which host it was measured on.
assert fleet["host_parallelism"] >= 1, fleet
for p in fleet["points"]:
    assert p["failed"] == 0, p
    assert p["p50_us"] <= p["p95_us"] <= p["p99_us"], p
    assert len(p["per_shard"]) == p["shards"], p
# The epoll reactor's connection ladder: the high-connection smoke.
# Every rung must complete every request, the ladder must reach at
# least 512 concurrent connections on one event loop thread, and each
# rung's probe answer must equal direct evaluation bit for bit.
reactor = doc["reactor"]
assert reactor["bit_identical"] is True, reactor
ladder = reactor["ladder"]
assert ladder, "no rungs in reactor ladder"
for c in ladder:
    assert c["failed"] == 0, f"reactor dropped requests: {c}"
    assert c["completed"] == c["requests"], c
    assert c["p50_us"] <= c["p95_us"] <= c["p99_us"], c
assert max(c["connections"] for c in ladder) >= 512, (
    "high-connection smoke needs >= 512 concurrent connections"
)
print(
    f"ok: {len(doc['cells'])} serving cells ({len(fused)} fused), store timed, "
    f"fleet scaled {fleet['speedup_1_to_max']}x to {fleet['max_shards']} shards, "
    f"epoll ladder clean to {max(c['connections'] for c in ladder)} connections"
)
PY
done

echo "== committed benchmark snapshots carry their provenance stamp =="
python3 - BENCH_kernels.json BENCH_resilience.json BENCH_serving.json <<'PY'
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    meta, simd = doc.get("meta"), doc.get("simd")
    assert meta and meta.get("git_sha") and meta.get("host_parallelism"), (path, meta)
    assert simd and simd.get("isa"), (path, simd)
    print(f"ok: {path} stamped {meta['git_sha']} on {simd['isa']}")
PY

echo "== fleet smoke (3 shards x 2 replicas, kill + warm-start) =="
# Kill one replica mid-load: with R=2 every model keeps a live replica,
# so the client herd must see zero failures, and the revived shard must
# replay its WAL and serve bit-identical answers. The kill drives the
# HTTP failover path, which routes on the epoll reactor: run it at the
# default thread count and forced serial (AF_NUM_THREADS=1, exactly one
# compute thread per shard under the event loop).
for THREADS in "" 1; do
SMOKE_JSON="$TMP_DIR/fleet_smoke${THREADS:+_threads$THREADS}.json"
env ${THREADS:+AF_NUM_THREADS=$THREADS} cargo run --release -q -p af-bench --bin fleet_smoke -- \
    --out "$SMOKE_JSON" >/dev/null
python3 - "$SMOKE_JSON" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "fleet_smoke", doc.get("bench")
assert doc["failed"] == 0, doc
assert doc["router_failed"] == 0, doc
assert doc["completed"] == doc["requests"], doc
assert doc["served_during_kill"] > 0, doc
assert doc["bit_identical"] is True, doc
assert doc["recovered_variants"] >= 1, doc
assert doc["wal_records_replayed"] >= 1, doc
# A fixed worker pool per engine: compute threads never exceed the
# shards' compute slots, however many models they carry.
assert 0 < doc["serve_threads"] <= doc["shards"] * doc["compute_slots"], doc
print(
    f"ok: {doc['completed']} requests, 0 failed across kill of shard "
    f"{doc['killed_shard']} ({doc['served_during_kill']} served while down), "
    f"{doc['recovered_variants']} variants warm-started bit-identically, "
    f"{doc['serve_threads']} compute threads"
)
PY
done

echo "== chaos smoke (sicken + kill + revive, deterministic) =="
# The chaos harness end to end: a scripted sicken/kill/revive campaign
# run twice from the same seeds — the bin itself asserts the two runs'
# determinism keys match (same outcomes, same breaker transition
# sequence, same fleet fingerprint). CI re-asserts the invariants from
# the JSON verdict, then repeats the whole thing forced serial.
cargo run --release -q -p af-bench --bin chaos_smoke -- \
    --out "$TMP_DIR/chaos_smoke.json" >/dev/null
python3 - "$TMP_DIR/chaos_smoke.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "chaos_smoke", doc.get("bench")
assert doc["deterministic"] is True, doc
r = doc["report"]
assert r["lost"] == 0, r
assert r["duplicated"] == 0, r
assert r["mismatched"] == 0, r
assert r["sent"] == r["ok"] + r["failed"], r
assert r["breaker_opens"] >= 2, r
assert r["breaker_closes"] >= 1, r
assert r["kills"] == 1 and r["revives"] == 1, r
assert r["recovered_bit_identical"] is True, r
assert r["transitions"], "no breaker transitions recorded"
print(
    f"ok: deterministic chaos, {r['sent']} requests ({r['ok']} ok), 0 lost, "
    f"{r['breaker_opens']} opens / {r['breaker_closes']} closes, "
    f"transitions {r['transitions']}"
)
PY
# Determinism must also hold with the runtime forced serial.
AF_NUM_THREADS=1 cargo run --release -q -p af-bench --bin chaos_smoke -- \
    --out "$TMP_DIR/chaos_smoke_serial.json" >/dev/null
python3 - "$TMP_DIR/chaos_smoke_serial.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["deterministic"] is True, doc
assert doc["report"]["lost"] == 0, doc["report"]
print("ok: chaos smoke deterministic under AF_NUM_THREADS=1")
PY

echo "== crash-recovery smoke (kill -9) =="
cargo build --release -q -p af-bench --bin store_crash
CRASH_BIN="target/release/store_crash"
STORE_ROOT="$TMP_DIR/store"
READY="$TMP_DIR/ready"

wait_ready() {
    for _ in $(seq 1 150); do
        [ -s "$READY" ] && return 0
        sleep 0.1
    done
    echo "error: serving process never became ready" >&2
    return 1
}

# Round 1: fresh store, register, take traffic, record the bits.
"$CRASH_BIN" serve --root "$STORE_ROOT" --ready-file "$READY" \
    2>"$TMP_DIR/serve1.log" &
SERVE_PID=$!
wait_ready
"$CRASH_BIN" probe --addr "$(cat "$READY")" \
    --out "$TMP_DIR/before.bits" >"$TMP_DIR/before.stats"
# The crash: no shutdown, no checkpoint — SIGKILL mid-serving.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
rm -f "$READY"

# Round 2: restart over the same root and re-probe.
"$CRASH_BIN" serve --root "$STORE_ROOT" --ready-file "$READY" \
    2>"$TMP_DIR/serve2.log" &
SERVE_PID=$!
wait_ready
"$CRASH_BIN" probe --addr "$(cat "$READY")" \
    --out "$TMP_DIR/after.bits" >"$TMP_DIR/after.stats"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# Every response after the kill must be byte-identical to before it.
diff "$TMP_DIR/before.bits" "$TMP_DIR/after.bits"
python3 - "$TMP_DIR/after.stats" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
store = doc["store"]
assert store is not None, "no store section in /stats"
assert store["recovered_variants"] == 3, store
assert store["wal_replays"] >= 3, store
assert store["journal_errors"] == 0, store
assert store["torn_tail_bytes_dropped"] == 0, store
names = {v["id"] for v in doc["variants"]}
assert names == {"crash/fp32", "crash/protected", "crash/fused"}, names
gens = {v["id"]: v["generation"] for v in doc["variants"]}
assert all(g == 0 for g in gens.values()), gens
protected = [v for v in doc["variants"] if v["protected"]]
assert len(protected) == 1, "exactly one SEC-DED protected variant"
fused = [v for v in doc["variants"] if v["fused_gemm"]]
assert len(fused) == 1 and fused[0]["fused_layers"] > 0, "fused variant lost"
print(
    f"ok: bit-identical across kill -9, {store['recovered_variants']} variants "
    f"recovered from {store['wal_replays']} WAL records"
)
PY

echo "== store_inspect over the crash smoke's containers =="
cargo build --release -q -p af-store --bin store_inspect
find "$STORE_ROOT" -name '*.afc' -print0 | sort -z \
    | xargs -0 -n1 target/release/store_inspect >"$TMP_DIR/inspect.jsonl"
python3 - "$TMP_DIR/inspect.jsonl" <<'PY'
import json, sys

seen = {}
with open(sys.argv[1]) as f:
    for line in f:
        doc = json.loads(line)
        assert doc["type"] == "container", doc
        seen.setdefault(doc["id"], []).append(doc)
assert set(seen) == {"crash/fp32", "crash/protected", "crash/fused"}, sorted(seen)
for vid, docs in seen.items():
    for doc in docs:
        for layer in doc["layers"]:
            mode, width = layer["mode"], layer["code_width"]
            if vid == "crash/fp32":
                assert mode == "raw_f32" and width == 32, (vid, layer)
            else:
                assert isinstance(mode, dict), (vid, layer)
                assert width == mode["bits"], (vid, layer)
files = sum(len(docs) for docs in seen.values())
print(f"ok: {files} containers, fp32 raw at width 32, coded layers at their format's width")
PY

echo "CI green."
