#!/usr/bin/env bash
# Performance snapshot: runs the micro_core google-benchmark suite plus a
# timed `reproduce_all --quick` scorecard and merges both into
# BENCH_core.json at the repo root.  Commit the refreshed JSON alongside
# any change that claims a speedup (and keep the pre-change file as
# BENCH_core.before.json) so reviewers can diff items/sec directly.
#
# Usage: scripts/run_bench.sh [--check] [output.json]   (default: BENCH_core.json)
#
#   --check   overhead guard: before overwriting the output file, compare
#             the fresh BM_EventQueuePushPop / BM_ProcessManagerSubmitDrain
#             / BM_WholeReplication numbers against the committed baseline
#             and fail when items/sec regressed by more than
#             SDA_BENCH_TOLERANCE (default 2%).
#             Also a correctness gate: fails when the quick scorecard has
#             more failed checks than the committed baseline records, so
#             a reproduction regression cannot hide behind a green build.
#             Used by CI to catch telemetry that leaks into the hot paths
#             (counters must stay passive O(1) increments).
#             Also enforces an absolute submit-drain throughput floor
#             (ROADMAP item 4): BM_ProcessManagerSubmitDrain must sustain
#             at least SDA_SUBMIT_DRAIN_MIN items/s (default 600000 —
#             far above the pre-arena ~430K so the raw-speed pass cannot
#             silently regress, with headroom for slower CI hosts).
#
# Env: SDA_THREADS caps pool parallelism for the quick scorecard;
#      the quick run length is reproduce_all --quick's own (20000 x 2);
#      SDA_BENCH_TOLERANCE sets the --check regression threshold (percent);
#      SDA_SUBMIT_DRAIN_MIN sets the submit-drain items/s floor.
set -euo pipefail

cd "$(dirname "$0")/.."
CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
OUT="${1:-BENCH_core.json}"
BUILD=build

if ! cmake --preset default > /tmp/sda_bench_configure.log 2>&1; then
  cat /tmp/sda_bench_configure.log >&2
  echo "" >&2
  echo "ERROR: cmake configure failed." >&2
  if grep -qi "benchmark" /tmp/sda_bench_configure.log; then
    echo "ERROR: google-benchmark was not found. micro_core requires it" >&2
    echo "       (find_package(benchmark REQUIRED) in CMakeLists.txt)." >&2
    echo "       Install libbenchmark-dev or point CMAKE_PREFIX_PATH at a" >&2
    echo "       benchmark install; this script will not silently skip the" >&2
    echo "       microbenchmarks." >&2
  fi
  exit 1
fi

cmake --build "$BUILD" -j "$(nproc)" --target micro_core reproduce_all

if [[ ! -x "$BUILD/bench/micro_core" ]]; then
  echo "ERROR: $BUILD/bench/micro_core was not built — google-benchmark" >&2
  echo "       is missing or the bench/ subdirectory failed to configure." >&2
  exit 1
fi

MICRO_JSON=$(mktemp /tmp/sda_micro.XXXXXX.json)
trap 'rm -f "$MICRO_JSON"' EXIT

echo "== micro_core =="
"$BUILD/bench/micro_core" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$MICRO_JSON"

echo "== reproduce_all --quick (timed) =="
START_NS=$(date +%s%N)
set +e
"$BUILD/bench/reproduce_all" --quick > /tmp/sda_quick.log 2>&1
QUICK_FAILURES=$?
set -e
END_NS=$(date +%s%N)
QUICK_MS=$(( (END_NS - START_NS) / 1000000 ))
tail -5 /tmp/sda_quick.log
echo "quick scorecard: ${QUICK_MS} ms wall, ${QUICK_FAILURES} failed checks"

if [[ "$CHECK" == 1 && -f "$OUT" ]]; then
  echo "== overhead guard (fresh vs $OUT) =="
  MICRO_JSON="$MICRO_JSON" BASELINE="$OUT" \
  TOLERANCE="${SDA_BENCH_TOLERANCE:-2}" \
  SUBMIT_DRAIN_MIN="${SDA_SUBMIT_DRAIN_MIN:-600000}" python3 - <<'PY'
import json, os, sys

with open(os.environ["MICRO_JSON"]) as f:
    fresh = {b["name"]: b for b in json.load(f).get("benchmarks", [])
             if b.get("run_type") != "aggregate"}
with open(os.environ["BASELINE"]) as f:
    base = json.load(f).get("micro_core", {})
tolerance = float(os.environ["TOLERANCE"]) / 100.0

# The hot paths telemetry must not slow down: the event queue's push/pop
# cycle, the process manager's submit/dispatch/drain cycle (the control
# lane is the sharded fabric's Amdahl bottleneck), and a whole end-to-end
# replication.
guarded = [n for n in base
           if n.startswith("BM_EventQueuePushPop")
           or n == "BM_ProcessManagerSubmitDrain"
           or n == "BM_WholeReplication"]
failed = False
for name in sorted(guarded):
    old = base[name].get("items_per_second")
    new = fresh.get(name, {}).get("items_per_second")
    if not old:  # WholeReplication reports time, not items/sec
        old = base[name].get("real_time_ns")
        new = fresh.get(name, {}).get("real_time")
        if not (old and new):
            continue
        ratio = new / old  # time: bigger is worse
        slower = ratio - 1.0
    else:
        if not new:
            print(f"  {name}: missing from fresh run", file=sys.stderr)
            failed = True
            continue
        slower = old / new - 1.0  # items/sec: smaller is worse
    verdict = "FAIL" if slower > tolerance else "ok"
    print(f"  {name}: {slower * 100:+.2f}% vs baseline [{verdict}]")
    if slower > tolerance:
        failed = True
if failed:
    print(f"overhead guard: regression beyond {tolerance * 100:.1f}% "
          "— rerun on a quiet machine or investigate", file=sys.stderr)
    sys.exit(1)
print("overhead guard: within tolerance")

# Absolute throughput floor on the PM control lane (ROADMAP item 4): the
# arena/SoA/backend raw-speed pass must not be silently reverted.
floor = float(os.environ["SUBMIT_DRAIN_MIN"])
sd = fresh.get("BM_ProcessManagerSubmitDrain", {}).get("items_per_second")
if sd is None:
    print("submit-drain gate: BM_ProcessManagerSubmitDrain missing",
          file=sys.stderr)
    sys.exit(1)
if sd < floor:
    print(f"submit-drain gate: {sd:,.0f} items/s is below the "
          f"{floor:,.0f} floor (SDA_SUBMIT_DRAIN_MIN)", file=sys.stderr)
    sys.exit(1)
print(f"submit-drain gate: {sd:,.0f} items/s (floor {floor:,.0f})")
PY

  echo "== scorecard regression gate (fresh vs $OUT) =="
  BASE_FAILED=$(OUT="$OUT" python3 -c 'import json, os
print(json.load(open(os.environ["OUT"])).get("reproduce_all_quick", {}).get("failed_checks", 0))')
  if (( QUICK_FAILURES > BASE_FAILED )); then
    echo "ERROR: quick scorecard regressed: ${QUICK_FAILURES} failed" >&2
    echo "       check(s) vs ${BASE_FAILED} in the committed baseline." >&2
    echo "       See /tmp/sda_quick.log for the failing claims." >&2
    exit 1
  fi
  echo "scorecard gate: ${QUICK_FAILURES} failed check(s) (baseline ${BASE_FAILED})"
fi

MICRO_JSON="$MICRO_JSON" QUICK_MS="$QUICK_MS" \
QUICK_FAILURES="$QUICK_FAILURES" OUT="$OUT" python3 - <<'PY'
import json, os, datetime

with open(os.environ["MICRO_JSON"]) as f:
    micro = json.load(f)

benchmarks = {}
for b in micro.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    entry = {"real_time_ns": b.get("real_time"),
             "cpu_time_ns": b.get("cpu_time")}
    if "items_per_second" in b:
        entry["items_per_second"] = b["items_per_second"]
    # Custom counters (state.counters[...]) surface as extra numeric
    # members — e.g. micro_core's assign_p99_ns; keep them all.
    standard = {
        "name", "family_index", "per_family_instance_index", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "iterations", "real_time", "cpu_time", "time_unit",
        "items_per_second", "bytes_per_second", "label", "aggregate_name",
    }
    for key, value in b.items():
        if key not in standard and isinstance(value, (int, float)):
            entry[key] = value
    benchmarks[b["name"]] = entry

ctx = micro.get("context", {})
out = {
    "generated": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": {
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "sda_threads_env": os.environ.get("SDA_THREADS"),
    },
    "micro_core": benchmarks,
    "reproduce_all_quick": {
        "wall_ms": int(os.environ["QUICK_MS"]),
        "failed_checks": int(os.environ["QUICK_FAILURES"]),
    },
}
with open(os.environ["OUT"], "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {os.environ['OUT']}")
PY
