#!/usr/bin/env bash
# The one-command CI gate: configure + build, unit tests, static analysis,
# and an sda_run end-to-end smoke whose JSON-lines output is schema-checked.
#
# Usage: scripts/ci.sh [build-dir]          (default: build)
#
# Stages (all must pass; the script stops at the first failure):
#   1. cmake configure + build (warnings on, full target set)
#   2. ctest — unit tests, sda-lint, and the SDA_VALIDATE oracle re-runs
#   3. scripts/check_static.sh — sda-lint + sda-analyze semantic pass,
#      their fixture selftests, the suppression audit, and clang-tidy
#      (when installed)
#   4. scripts/check_thread_safety.sh — Clang -Wthread-safety over the
#      annotated tree plus the negative-compile fixtures; skips cleanly
#      on hosts without clang++ (the annotations are no-ops there)
#   5. sda_run smoke — Table-1 baseline at a short horizon with --json and
#      --trace, then: every JSON line parses, schemas are sda.run.v1 /
#      sda.report.v1, the trace declares one track per node, and the
#      fingerprints in the report match a second exporter-free run.
#   6. sharded PDES smoke — the same baseline run at shards=1 and
#      shards=4 must report identical replication fingerprints (the
#      conservative time-window fabric's bit-identity contract).
#   7. sda_run --serve smoke — a scripted submission stream through the
#      admission front door: every line parses as JSON, N submissions get
#      exactly N sda.admit.v1 decisions plus one summary, `done` lines for
#      already-retired ids get structured sda.error.v1 replies, and a
#      rerun is byte-identical (decision determinism).
#   8. socket front door — spawn `--serve --listen 127.0.0.1:0 --journal`,
#      submit over TCP, SIGTERM drain, then verify the drain summary's
#      journal fingerprint against an offline `--recover-check` replay;
#      finally a TSan build/run of the multi-client server test.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

echo "=== [1/8] configure + build ==="
cmake -B "$BUILD" -S . > /dev/null
cmake --build "$BUILD" -j "$(nproc)"

echo ""
echo "=== [2/8] ctest ==="
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo ""
echo "=== [3/8] static analysis ==="
scripts/check_static.sh "$BUILD"

echo ""
echo "=== [4/8] thread-safety analysis ==="
rc=0; scripts/check_thread_safety.sh || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 77 ]; then
  exit "$rc"
fi

echo ""
echo "=== [5/8] sda_run smoke + schema check ==="
SMOKE_DIR=$(mktemp -d /tmp/sda_ci.XXXXXX)
trap 'rm -f "$SMOKE_DIR"/*; rmdir "$SMOKE_DIR"' EXIT

"$BUILD/tools/sda_run" sim_time=5000 reps=2 \
  --json "$SMOKE_DIR/out.jsonl" --trace "$SMOKE_DIR/run.trace.json" \
  > "$SMOKE_DIR/with_exporters.txt"
"$BUILD/tools/sda_run" sim_time=5000 reps=2 \
  > "$SMOKE_DIR/without_exporters.txt"

SMOKE_DIR="$SMOKE_DIR" python3 - <<'PY'
import json, os, re, sys

d = os.environ["SMOKE_DIR"]

# --- JSON lines: parse + schema --------------------------------------------
lines = [json.loads(l) for l in open(os.path.join(d, "out.jsonl"))]
schemas = [l["schema"] for l in lines]
assert schemas == ["sda.run.v1", "sda.run.v1", "sda.report.v1"], schemas
for run in lines[:2]:
    for key in ("rep", "seed", "fingerprint", "diag", "classes", "nodes"):
        assert key in run, f"sda.run.v1 missing '{key}'"
    assert run["fingerprint"].startswith("0x")
    assert len(run["nodes"]) == 6, "one perf-counter block per node"
report = lines[2]
for key in ("config", "classes", "overall_missed_work", "fingerprints"):
    assert key in report, f"sda.report.v1 missing '{key}'"
assert report["config"]["psp"] == "ud"
assert len(report["fingerprints"]) == 2

# --- Chrome trace: one track per node --------------------------------------
trace = json.load(open(os.path.join(d, "run.trace.json")))
tracks = [e["args"]["name"] for e in trace["traceEvents"]
          if e.get("ph") == "M" and e.get("name") == "thread_name"]
assert tracks == [f"node {i}" for i in range(6)] + ["global runs"], tracks

# --- determinism: exporters must not move the fingerprints -----------------
def fingerprints(path):
    text = open(os.path.join(d, path)).read()
    return re.search(r"fingerprints:(.*)", text).group(1).split()

with_exp, without_exp = (fingerprints("with_exporters.txt"),
                         fingerprints("without_exporters.txt"))
assert with_exp == without_exp, (with_exp, without_exp)
assert [hex(int(f, 16)) for f in with_exp] == \
       [r["fingerprint"] for r in lines[:2]], "JSON fingerprints diverge"

print("smoke ok: schemas valid, 6+1 trace tracks, fingerprints identical "
      "with and without exporters")
PY

echo ""
echo "=== [6/8] sharded PDES smoke: shards=4 fingerprint == shards=1 ==="
# The conservative time-window fabric (DESIGN.md 4c) must reproduce the
# serial engine bit for bit: same seeds, same trace fingerprints, at any
# shard count.  shards=1 is the untouched serial path; shards=4 runs the
# same replications across four worker threads.
"$BUILD/tools/sda_run" sim_time=5000 reps=2 shards=1 \
  > "$SMOKE_DIR/serial.txt"
"$BUILD/tools/sda_run" sim_time=5000 reps=2 shards=4 \
  > "$SMOKE_DIR/sharded.txt"
SERIAL_FP=$(grep -o "fingerprints:.*" "$SMOKE_DIR/serial.txt")
SHARDED_FP=$(grep -o "fingerprints:.*" "$SMOKE_DIR/sharded.txt")
if [[ -z "$SERIAL_FP" || "$SERIAL_FP" != "$SHARDED_FP" ]]; then
  echo "FAIL: sharded fingerprints diverge from serial" >&2
  echo "  shards=1: $SERIAL_FP" >&2
  echo "  shards=4: $SHARDED_FP" >&2
  exit 1
fi
echo "sharded smoke ok: shards=4 reproduces shards=1 ($SERIAL_FP)"

echo ""
echo "=== [7/8] sda_run --serve smoke + schema check ==="
N_SUBS=40
{
  echo "# ci serve smoke: repeated shapes, a burst, and completions"
  for i in $(seq 1 "$N_SUBS"); do
    at=$(python3 -c "print(0.5 * $i)")
    echo "sub id=$i at=$at deadline=6 tree=[A@$((i % 6)):1/1 || B@$(((i + 2) % 6)):2/2]"
    if (( i % 3 == 0 && i > 6 )); then
      echo "done id=$((i - 6))"
    fi
  done
} > "$SMOKE_DIR/serve_input.txt"

# The stream deliberately contains `done` lines for already-retired ids,
# so sda_run's EX_DATAERR-style contract (answered errors => exit 65)
# applies: anything other than 65 here is a real failure.
rc=0; "$BUILD/tools/sda_run" --serve --input "$SMOKE_DIR/serve_input.txt" \
  > "$SMOKE_DIR/serve_out.jsonl" || rc=$?
[ "$rc" -eq 65 ] || { echo "FAIL: serve exit $rc, expected 65 (answered errors)"; exit 1; }
rc=0; "$BUILD/tools/sda_run" --serve --input "$SMOKE_DIR/serve_input.txt" \
  > "$SMOKE_DIR/serve_out2.jsonl" || rc=$?
[ "$rc" -eq 65 ] || { echo "FAIL: serve rerun exit $rc, expected 65"; exit 1; }

SMOKE_DIR="$SMOKE_DIR" N_SUBS="$N_SUBS" python3 - <<'PY'
import json, os

d = os.environ["SMOKE_DIR"]
n_subs = int(os.environ["N_SUBS"])

lines = [json.loads(l) for l in open(os.path.join(d, "serve_out.jsonl"))]
decisions = [l for l in lines if l["schema"] == "sda.admit.v1"]
summaries = [l for l in lines if l["schema"] == "sda.serve.summary.v1"]
errors = [l for l in lines if l["schema"] == "sda.error.v1"]
assert len(lines) == len(decisions) + len(summaries) + len(errors), \
    "unknown schema in output"
assert len(summaries) == 1, f"expected 1 summary, got {len(summaries)}"
summary = summaries[0]

# One decision per submission, none lost, none invented.
assert summary["submissions"] == n_subs, summary
assert summary["decisions"] == n_subs, summary
assert len(decisions) == n_subs, len(decisions)
# The stream retires ids on a fixed lag, so some `done` lines target
# runs the controller already shed: each must be *answered* with a
# structured unknown-id error, and the summary must count them.
assert summary["errors"] == len(errors), summary
for err in errors:
    assert err["code"] == "unknown-id", err
    assert "id" in err and "reason" in err, err
assert sorted(dec["id"] for dec in decisions) == list(range(1, n_subs + 1))
for dec in decisions:
    for key in ("id", "at", "decision", "state", "reason", "pressure"):
        assert key in dec, f"sda.admit.v1 missing '{key}': {dec}"
    assert dec["decision"] in ("admit", "admit_degraded", "reject", "shed",
                               "backpressure"), dec
    if dec["decision"].startswith("admit"):
        assert dec.get("leaves"), "admitted decision without a plan"
    # The plan cache is gone: no decision may still carry its flag.
    assert "cache_hit" not in dec, f"stale cache_hit member: {dec}"
assert "plan_cache" not in summary, f"stale plan_cache block: {summary}"
resolved = (summary["admitted"] + summary["admitted_degraded"] +
            summary["rejected"] + summary["shed"] + summary["backpressure"])
assert resolved == n_subs, summary

# Byte-identical rerun: the decision stream is deterministic.
a = open(os.path.join(d, "serve_out.jsonl")).read()
b = open(os.path.join(d, "serve_out2.jsonl")).read()
assert a == b, "serve output differs between identical runs"

print(f"serve smoke ok: {n_subs} submissions -> {n_subs} decisions "
      f"({summary['admitted']} admitted, {summary['rejected']} rejected, "
      f"{summary['shed']} shed, {len(errors)} answered errors), "
      f"reruns byte-identical")
PY

echo ""
echo "=== [8/8] socket front door: TCP smoke, SIGTERM drain, replay check ==="
"$BUILD/tools/sda_run" --serve --listen 127.0.0.1:0 \
  --journal "$SMOKE_DIR/ci.wal" --journal-flush-every 1 \
  > "$SMOKE_DIR/socket_out.jsonl" &
SERVER_WAIT_PID=$!

# The banner (first stdout line) carries the ephemeral port and pid.
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/socket_out.jsonl" ] && break
  sleep 0.1
done
[ -s "$SMOKE_DIR/socket_out.jsonl" ] || {
  echo "FAIL: no sda.listen.v1 banner from the socket server"; exit 1;
}

SMOKE_DIR="$SMOKE_DIR" python3 - <<'PY'
import json, os, socket

d = os.environ["SMOKE_DIR"]
banner = json.loads(open(os.path.join(d, "socket_out.jsonl")).readline())
assert banner["schema"] == "sda.listen.v1", banner
assert banner["transport"] == "tcp", banner

# Submit over TCP: decisions come back on the submitting connection,
# and a done for an unknown id is answered, not dropped.  Late
# submissions park in the admission queue (no instant reply), so the
# dones below both retire capacity — pumping the parked ones out — and
# exercise the unknown-id error path; then we collect until every
# submission is decided.
conn = socket.create_connection((banner["host"], banner["port"]), timeout=10)
reader = conn.makefile("r")
for i in range(1, 9):
    conn.sendall(
        f"sub id={i} at={0.5 * i} deadline=6 "
        f"tree=[A@{i % 6}:1/1 || B@{(i + 2) % 6}:2/2]\n".encode())
conn.sendall(b"done id=1 at=5\n")
conn.sendall(b"done id=2 at=5.5\n")
conn.sendall(b"done id=4242 at=6\n")
decisions, errors = [], []
while len(decisions) < 8 or len(errors) < 1:
    msg = json.loads(reader.readline())
    if msg["schema"] == "sda.admit.v1":
        decisions.append(msg)
    else:
        assert msg["schema"] == "sda.error.v1", msg
        errors.append(msg)
assert sorted(d["id"] for d in decisions) == list(range(1, 9)), decisions
assert errors[0]["code"] == "unknown-id" and errors[0]["id"] == 4242, errors
conn.close()

# Hand the pid to the shell for the SIGTERM drain.
open(os.path.join(d, "server.pid"), "w").write(str(banner["pid"]))
print(f"socket smoke ok: 8 decisions + 1 answered error over "
      f"127.0.0.1:{banner['port']} ({banner['backend']})")
PY

kill -TERM "$(cat "$SMOKE_DIR/server.pid")"
wait "$SERVER_WAIT_PID"

"$BUILD/tools/sda_run" --recover-check "$SMOKE_DIR/ci.wal" \
  > "$SMOKE_DIR/recover.jsonl"

SMOKE_DIR="$SMOKE_DIR" python3 - <<'PY'
import json, os

d = os.environ["SMOKE_DIR"]
lines = [json.loads(l) for l in open(os.path.join(d, "socket_out.jsonl"))]
summary = [l for l in lines if l["schema"] == "sda.serve.summary.v1"]
assert len(summary) == 1, "SIGTERM drain must emit exactly one summary"
summary = summary[0]
assert summary["submissions"] == 8, summary
assert summary["net"]["accepted"] == 1, summary
assert summary["errors"] == 1, summary

recover = json.loads(open(os.path.join(d, "recover.jsonl")).readline())
assert recover["schema"] == "sda.recover.v1", recover
assert recover["ok"] and not recover["truncated"], recover
# The crash-safety contract in one line: offline replay of the journal
# reproduces the exact state fingerprint the drain summary published.
assert recover["fingerprint"] == summary["journal"]["fingerprint"], (
    recover["fingerprint"], summary["journal"]["fingerprint"])
print(f"drain + replay ok: journal fingerprint {recover['fingerprint']} "
      f"matches across {recover['replayed']} replayed records")
PY

echo ""
echo "--- TSan pass over the multi-client server ---"
cmake --preset tsan > /dev/null
cmake --build build-tsan --target test_net -j "$(nproc)"
ctest --test-dir build-tsan -R test_net --output-on-failure

echo ""
echo "CI gate passed."
