#!/usr/bin/env bash
#
# Perf-smoke gate: catches event-kernel dispatch-rate regressions.
#
#   1. bench_kernel at reduced scale (LFS_KERNEL_EVENTS=300k, 3 reps of
#      at least 50 ms each); each case's median events_per_sec must stay
#      within the regression tolerance of its checked-in baseline
#      (scripts/perf_baseline.json).
#      Baselines sit well below (~60% of) the reference container's
#      measured rates so ordinary machine variance never false-fails —
#      the gate is tuned to catch the >20% regression class, e.g.
#      reintroducing a per-event heap allocation.
#   2. bench_micro_structures cache-walk and namespace cases (hit/miss/
#      deep/many-caches get and invalidate/put_chain/prefix-invalidate,
#      resolve_ids/lookup_child/create):
#      per-op nanoseconds must stay below the checked-in ceilings — the
#      gate for the zero-allocation metadata-cache walk (DESIGN.md
#      par.14) and the slab-resident namespace hot paths (par.15).
#   3. bench_fig11_client_scaling at tiny scale: end-to-end sanity that
#      a full harness still reports [perf] lines and clears its floor.
#      Pinned to LFS_SWEEP_JOBS=1: the wall-clock floor assumes runs do
#      not share the machine with sibling sweep points.
#   4. bench_scenarios at tiny scale: the extended op surface (links,
#      sessions, GC) must succeed on every system, reclaim every leaked
#      lease, and leave no orphans — a cross-system lifecycle smoke.
#   5. bench_namespace_scale at 1M inodes under the default 64 MB budget:
#      the two-tier namespace must page file records out, keep budgeted
#      bytes/inode under its checked-in ceiling, and keep the unbudgeted
#      point entirely out of the cold tier (DESIGN.md par.15).
#
# All runs append one dated JSON line to the checked-in trajectory
# files (BENCH_kernel.json / BENCH_micro.json / BENCH_fig11.json /
# BENCH_scenarios.json / BENCH_namespace.json) so the repo accumulates
# a perf time series;
# render it with scripts/lfs_report.py --trajectory.
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)
# Skip with LFS_SKIP_PERF=1 (e.g. on emulated or heavily-shared hosts).
# Skip the trajectory append with LFS_SKIP_BENCH_LOG=1.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BASELINE_JSON="scripts/perf_baseline.json"

if [[ "${LFS_SKIP_PERF:-0}" == "1" ]]; then
    echo "== perf smoke skipped (LFS_SKIP_PERF=1) =="
    exit 0
fi

KERNEL_LOG="BENCH_kernel.json"
MICRO_LOG="BENCH_micro.json"
FIG11_LOG="BENCH_fig11.json"
SCENARIOS_LOG="BENCH_scenarios.json"
NAMESPACE_LOG="BENCH_namespace.json"
if [[ "${LFS_SKIP_BENCH_LOG:-0}" == "1" ]]; then
    KERNEL_LOG=""
    MICRO_LOG=""
    FIG11_LOG=""
    SCENARIOS_LOG=""
    NAMESPACE_LOG=""
fi

echo "== perf smoke: bench_kernel =="
KERNEL_OUT="$(LFS_KERNEL_EVENTS="${LFS_PERF_EVENTS:-300000}" \
    LFS_KERNEL_REPS="${LFS_PERF_REPS:-3}" \
    LFS_BENCH_LOG="$KERNEL_LOG" \
    "$BUILD_DIR/bench/bench_kernel")"
echo "$KERNEL_OUT" | grep '^\[bench_kernel\]'

echo "== perf smoke: bench_micro_structures (cache-walk + namespace ceilings) =="
MICRO_JSON="$(mktemp)"
trap 'rm -f "$MICRO_JSON"' EXIT
"$BUILD_DIR/bench/bench_micro_structures" --benchmark_filter='Cache|BM_Ns' \
    --benchmark_format=json --benchmark_min_time=0.1 > "$MICRO_JSON"

echo "== perf smoke: bench_fig11_client_scaling (tiny scale, serial) =="
FIG11_OUT="$(LFS_OPS_PER_CLIENT=8 LFS_SWEEP_JOBS=1 \
    LFS_BENCH_LOG="$FIG11_LOG" \
    "$BUILD_DIR/bench/bench_fig11_client_scaling")"

echo "== perf smoke: bench_scenarios (extended op surface, tiny scale) =="
SCENARIOS_OUT="$(LFS_SCENARIO_ROUNDS=10 LFS_SWEEP_JOBS=1 \
    LFS_BENCH_LOG="$SCENARIOS_LOG" \
    "$BUILD_DIR/bench/bench_scenarios")"
if echo "$SCENARIOS_OUT" | grep -q 'MEASURED: NO'; then
    echo "$SCENARIOS_OUT" | grep 'MEASURED:'
    echo "FAIL: bench_scenarios lifecycle check failed"
    echo "== perf smoke FAILED =="
    exit 1
fi
if [[ "$(echo "$SCENARIOS_OUT" | grep -c 'MEASURED: yes')" -lt 3 ]]; then
    echo "FAIL: bench_scenarios printed fewer than 3 passing checks"
    echo "== perf smoke FAILED =="
    exit 1
fi
if ! echo "$SCENARIOS_OUT" | grep -q '^\s*\[perf\]'; then
    echo "FAIL: no [perf] events_per_sec lines in bench_scenarios output"
    echo "== perf smoke FAILED =="
    exit 1
fi
echo "  ok: extended op surface clean on every system " \
     "($(echo "$SCENARIOS_OUT" | grep -c '^\s*\[perf\]') observed runs)"

echo "== perf smoke: bench_namespace_scale (two-tier paging, 1M inodes) =="
NS_OUT="$(LFS_NS_MAX_INODES="${LFS_PERF_NS_INODES:-1000000}" \
    LFS_NS_RESOLVES=50000 LFS_SWEEP_JOBS=1 \
    LFS_BENCH_LOG="$NAMESPACE_LOG" \
    "$BUILD_DIR/bench/bench_namespace_scale")"

if ! python3 - "$BASELINE_JSON" "$MICRO_JSON" "$MICRO_LOG" \
        <<'EOF' "$KERNEL_OUT" "$FIG11_OUT" "$NS_OUT"
import json
import re
import sys
import time

baseline = json.load(open(sys.argv[1]))
micro = json.load(open(sys.argv[2]))
micro_log = sys.argv[3]
kernel_out, fig11_out, ns_out = sys.argv[4], sys.argv[5], sys.argv[6]
tolerance = baseline["regression_tolerance"]

def eps_lines(text, tag):
    rates = {}
    for line in text.splitlines():
        if tag not in line:
            continue
        case = re.search(r"case=(\S+)", line)
        eps = re.search(r"events_per_sec=(\d+)", line)
        if eps:
            rates.setdefault(case.group(1) if case else "", []).append(
                int(eps.group(1)))
    return rates

fail = False

kernel_rates = eps_lines(kernel_out, "[bench_kernel]")
for case, base in baseline["bench_kernel"].items():
    floor = base * (1.0 - tolerance)
    got = kernel_rates.get(case)
    if not got:
        print(f"FAIL: bench_kernel case {case} printed no events_per_sec")
        fail = True
    elif got[0] < floor:
        print(f"FAIL: {case} at {got[0]} events/sec, more than "
              f"{tolerance:.0%} below baseline {base} (floor {floor:.0f})")
        fail = True
    else:
        print(f"  ok: {case} {got[0]} events/sec (floor {floor:.0f})")

# Cache-walk ceilings: per-op real_time (ns) must stay below the
# checked-in ceiling. Ceilings carry their own slack (~2.5x a healthy
# run), so no further tolerance is applied.
micro_times = {b["name"]: b["real_time"] for b in micro.get("benchmarks", [])
               if b.get("time_unit", "ns") == "ns"}
micro_runs = []
ceilings = dict(baseline["bench_micro_structures"]["cache_ns_ceiling"])
ceilings.update(baseline["bench_micro_structures"].get(
    "namespace_ns_ceiling", {}))
for case, ceiling in ceilings.items():
    got = micro_times.get(case)
    if got is None:
        print(f"FAIL: bench_micro_structures did not report {case}")
        fail = True
        continue
    micro_runs.append((case, got))
    if got > ceiling:
        print(f"FAIL: {case} at {got:.0f} ns/op, above ceiling {ceiling} ns")
        fail = True
    else:
        print(f"  ok: {case} {got:.0f} ns/op (ceiling {ceiling})")

if micro_log and micro_runs:
    # One dated trajectory line; ns/op is recorded as ops/sec so the
    # --trajectory renderer and its trend math apply unchanged.
    entry = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "bench": "bench_micro_structures",
        "runs": [{"label": case, "ns_per_op": round(t, 1),
                  "events_per_sec": round(1e9 / t) if t else 0}
                 for case, t in micro_runs],
    }
    with open(micro_log, "a") as f:
        f.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print(f"appended bench log: {micro_log} ({len(micro_runs)} runs)")

fig11_rates = [r for rs in eps_lines(fig11_out, "[perf]").values() for r in rs]
base = baseline["bench_fig11_client_scaling"]["best_run_events_per_sec"]
floor = base * (1.0 - tolerance)
if not fig11_rates:
    print("FAIL: no [perf] events_per_sec lines in fig11 output")
    fail = True
elif max(fig11_rates) < floor:
    print(f"FAIL: fig11 best rate {max(fig11_rates)} events/sec below "
          f"floor {floor:.0f}")
    fail = True
else:
    print(f"  ok: fig11 best rate {max(fig11_rates)} events/sec "
          f"(floor {floor:.0f})")

# Two-tier namespace gate: parse the deterministic residency table
# (point resident cold res_mb B/inode pageins pageouts). The budgeted
# single-client point must actually page out and stay under the
# bytes/inode ceiling; the unbudgeted point must never touch the cold
# tier.
row_re = re.compile(r"^\s*(ns/\S+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)"
                    r"\s+(\d+)\s+(\d+)\s*$")
ns_rows = {}
for line in ns_out.splitlines():
    m = row_re.match(line)
    if m:
        ns_rows[m.group(1)] = {
            "resident": int(m.group(2)), "cold": int(m.group(3)),
            "bpi": float(m.group(5)), "pageins": int(m.group(6)),
            "pageouts": int(m.group(7)),
        }
budgeted = next((r for label, r in ns_rows.items()
                 if "budget=unset" not in label and "clients=1" in label),
                None)
unset = next((r for label, r in ns_rows.items()
              if "budget=unset" in label), None)
bpi_ceiling = baseline["bench_namespace_scale"][
    "budgeted_bytes_per_inode_ceiling"]
ns_fail = False
if budgeted is None or unset is None:
    print("FAIL: bench_namespace_scale printed no parseable residency rows")
    ns_fail = True
else:
    if budgeted["cold"] == 0 or budgeted["pageouts"] == 0:
        print("FAIL: budgeted namespace point paged nothing out")
        ns_fail = True
    if budgeted["bpi"] > bpi_ceiling:
        print(f"FAIL: budgeted bytes/inode {budgeted['bpi']} above "
              f"ceiling {bpi_ceiling}")
        ns_fail = True
    if unset["cold"] != 0 or unset["pageouts"] != 0 or unset["pageins"] != 0:
        print("FAIL: unbudgeted namespace point touched the cold tier")
        ns_fail = True
    if not ns_fail:
        print(f"  ok: namespace {budgeted['bpi']} B/inode budgeted "
              f"(ceiling {bpi_ceiling}), {budgeted['cold']} cold records, "
              f"unbudgeted fully resident")
fail = fail or ns_fail

sys.exit(1 if fail else 0)
EOF
then
    echo "== perf smoke FAILED =="
    exit 1
fi
echo "== perf smoke passed =="
