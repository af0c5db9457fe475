#!/usr/bin/env bash
#
# Tier-1 verification plus an observability smoke test:
#   1. configure + build everything
#   2. run the full ctest suite
#   3. rebuild with AddressSanitizer + UBSan and rerun the suite, plus
#      a forked-sweep smoke and a two-tier namespace paging smoke (a
#      sub-resident budget drives the evict/fault/compact paths) under
#      the sanitizers (set LFS_SKIP_SANITIZE=1 to skip this pass)
#   4. run one bench harness at tiny scale with --trace-out/--metrics-out
#      and confirm both artifacts are valid JSON with the expected shape
#   5. run a tiny bench with --attribution and confirm the latency
#      attribution ledger populates at least 6 segments and the flight
#      recorder retains at least 8 tail exemplars (scripts/lfs_report.py)
#   6. parallel-determinism gate: run one sweep harness twice — serial
#      (LFS_SWEEP_JOBS=1) and forked (LFS_SWEEP_JOBS=4) — and diff the
#      outputs byte-for-byte after dropping the wall-clock [perf] lines
#      (DESIGN.md par.14); the ASan pass also exercises the forked path
#   7. run the perf-smoke gate (scripts/perf_smoke.sh): kernel dispatch
#      rates must stay within 20% of checked-in baselines, the cache-walk
#      and namespace micro cases must stay under their ns/op ceilings,
#      the bench_scenarios lifecycle sweep (links/sessions/GC on every
#      system) must come back clean, and the two-tier namespace must
#      hold its bytes/inode ceiling at 1M inodes (set LFS_SKIP_PERF=1
#      to skip)
#   8. print the src+bench .cc/.h line count as the last line (for
#      information only, not a gate)
#
# Usage: scripts/check.sh [build-dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Gated static analysis: the container image does not ship clang-tidy,
# so the pass runs only where the tool exists (checks configured in
# .clang-tidy: bugprone-*, performance-*, modernize-use-override).
if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (bugprone-*, performance-*, modernize-use-override) =="
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    git ls-files 'src/*.cc' 'bench/*.cc' | \
        xargs -P "$(nproc)" -n 8 clang-tidy -p "$BUILD_DIR" --quiet
else
    echo "== clang-tidy not installed; static-analysis pass skipped =="
fi

if [[ "${LFS_SKIP_SANITIZE:-0}" != "1" ]]; then
    echo "== ASan + UBSan build + ctest =="
    cmake -B "$BUILD_DIR-asan" -S . -DLFS_SANITIZE=ON >/dev/null
    cmake --build "$BUILD_DIR-asan" -j"$(nproc)"
    # detect_leaks=0: the simulator's coroutine lifetime rule is that a
    # suspended coroutine is never destroyed, so tests that end with
    # operations still in flight leak those frames by design. ASan's
    # use-after-free/overflow checks and UBSan remain fully active.
    ASAN_OPTIONS=detect_leaks=0 \
        ctest --test-dir "$BUILD_DIR-asan" --output-on-failure -j"$(nproc)"
    echo "== ASan sweep-fabric smoke (forked children) =="
    ASAN_OPTIONS=detect_leaks=0 \
        LFS_OPS_PER_CLIENT=2 LFS_MAX_CLIENTS=8 LFS_SWEEP_JOBS=4 \
        "$BUILD_DIR-asan/bench/bench_fig11_client_scaling" >/dev/null
    echo "  ok: forked sweep clean under ASan+UBSan"
    echo "== ASan two-tier paging smoke (evict/fault/compact paths) =="
    # A 4 MB budget under a ~16 MB slab forces sustained eviction, cold
    # seals + tiered merges, and demand faults on the resolve stream —
    # the memcpy-heavy paths ASan must walk (DESIGN.md par.15).
    ASAN_OPTIONS=detect_leaks=0 \
        LFS_NS_MAX_INODES=200000 LFS_NS_BUDGET_MB=4 LFS_NS_RESOLVES=20000 \
        LFS_SWEEP_JOBS=2 \
        "$BUILD_DIR-asan/bench/bench_namespace_scale" >/dev/null
    echo "  ok: two-tier paging clean under ASan+UBSan"
else
    echo "== ASan + UBSan pass skipped (LFS_SKIP_SANITIZE=1) =="
fi

echo "== observability smoke (bench_fig10_latency_cdf) =="
ARTIFACT_DIR="$(mktemp -d)"
trap 'rm -rf "$ARTIFACT_DIR"' EXIT
TRACE_JSON="$ARTIFACT_DIR/trace.json"
METRICS_JSON="$ARTIFACT_DIR/metrics.json"

LFS_BENCH_SCALE=0.03 LFS_DURATION=10 \
    "$BUILD_DIR/bench/bench_fig10_latency_cdf" \
    --trace-out="$TRACE_JSON" --metrics-out="$METRICS_JSON" >/dev/null

python3 - "$TRACE_JSON" "$METRICS_JSON" <<'EOF'
import json
import sys

trace_path, metrics_path = sys.argv[1], sys.argv[2]

with open(trace_path) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
components = {e["cat"] for e in events}
for want in ("client", "faas", "store"):
    assert want in components, f"missing {want} spans, have {components}"
print(f"  trace ok: {len(events)} events, components={sorted(components)}")

with open(metrics_path) as f:
    metrics = json.load(f)
runs = metrics["runs"]
assert runs, "metrics has no runs"
names = {m["name"] for r in runs for m in r["data"]["metrics"]}
for want in ("faas.cold_starts", "store.queue_depth_total", "cache.hits"):
    assert want in names, f"missing metric {want}"
print(f"  metrics ok: {len(runs)} runs, {len(names)} distinct metrics")
EOF

echo "== attribution smoke (bench_fig11_client_scaling) =="
ATTR_JSON="$ARTIFACT_DIR/attr_metrics.json"
ATTR_OUT="$ARTIFACT_DIR/attr_stdout.txt"
# --trace-out arms the tracer so the retained tail exemplars carry full
# span trees (attribution alone keeps them ledger-only).
LFS_OPS_PER_CLIENT=4 LFS_MAX_CLIENTS=16 \
    "$BUILD_DIR/bench/bench_fig11_client_scaling" \
    --attribution --metrics-out="$ATTR_JSON" \
    --trace-out="$ARTIFACT_DIR/attr_trace.json" > "$ATTR_OUT"
grep -q '^\s*\[attribution\]' "$ATTR_OUT" || {
    echo "FAIL: no [attribution] table in bench output"; exit 1; }
grep -q '^\s*\[flight-recorder\]' "$ATTR_OUT" || {
    echo "FAIL: no [flight-recorder] line in bench output"; exit 1; }
python3 scripts/lfs_report.py "$ATTR_JSON" \
    --check-segments 6 --check-exemplars 8 > "$ARTIFACT_DIR/attr_report.txt"
tail -2 "$ARTIFACT_DIR/attr_report.txt"
python3 - "$ATTR_JSON" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
spanful = sum(1 for run in doc["runs"]
              for ex in run.get("exemplars", [])
              if ex.get("spans"))
assert spanful >= 8, f"only {spanful} exemplars carry span trees (need 8)"
print(f"  exemplar spans ok: {spanful} exemplars with full span trees")
EOF

echo "== parallel-determinism gate (LFS_SWEEP_JOBS=1 vs 4) =="
SWEEP_SERIAL="$ARTIFACT_DIR/sweep_serial.txt"
SWEEP_PARALLEL="$ARTIFACT_DIR/sweep_parallel.txt"
# [perf] lines carry wall-clock figures and are the only legitimate
# difference between a serial and a forked sweep; everything else —
# tables, checks, run ordering — must match byte-for-byte.
LFS_OPS_PER_CLIENT=4 LFS_MAX_CLIENTS=16 LFS_SWEEP_JOBS=1 \
    "$BUILD_DIR/bench/bench_fig11_client_scaling" | \
    grep -v '^\s*\[perf\]' > "$SWEEP_SERIAL"
LFS_OPS_PER_CLIENT=4 LFS_MAX_CLIENTS=16 LFS_SWEEP_JOBS=4 \
    "$BUILD_DIR/bench/bench_fig11_client_scaling" | \
    grep -v '^\s*\[perf\]' > "$SWEEP_PARALLEL"
if ! diff -u "$SWEEP_SERIAL" "$SWEEP_PARALLEL"; then
    echo "FAIL: serial and parallel sweep outputs differ"
    exit 1
fi
echo "  ok: serial and parallel sweeps byte-identical (modulo [perf])"

scripts/perf_smoke.sh "$BUILD_DIR"

echo "== all checks passed =="

# Informational size measure; never a gate.
echo "src+bench lines: $(git ls-files src bench | grep -E '\.(cc|h)$' | \
    xargs cat | wc -l)"
