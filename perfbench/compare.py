#!/usr/bin/env python3
"""Compare saved benchmark runs of two commits.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more `perfbench/run.py`
runs, concatenated.  For every workload and end-to-end metric the script
prints both medians and the change, and marks a change worse than the
metric's bound in BENCHMARK.json.  Runs are only comparable on the same
host shape (CPU count, CPU model, compiler, build type): when any two runs
carry different stamps the script refuses, with exit code 2.  Exit code 1
means some metric got worse by more than its bound.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_runs(text):
    """(host stamp record, result record) pairs, in order."""
    runs = []
    stamp = None
    for line in text.splitlines():
        if line.startswith('{"perfbench_host"'):
            stamp = json.loads(line)
        elif line.startswith('{"correct"') and stamp is not None:
            runs.append((stamp, json.loads(line)))
            stamp = None
    return runs


def host_shapes(runs):
    return {json.dumps(stamp["perfbench_host"], sort_keys=True)
            for stamp, _ in runs}


def change(base, new, better):
    """Relative change of `new` against `base`, positive when worse."""
    if base == 0:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def medians(runs):
    """{(workload, metric): median value} over untraced runs."""
    values = {}
    for stamp, result in runs:
        if stamp.get("trace"):
            continue
        for name, m in result["metrics"].items():
            values.setdefault((stamp["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def compare(base_runs, new_runs, spec):
    shapes = host_shapes(base_runs) | host_shapes(new_runs)
    if len(shapes) > 1:
        raise ValueError("runs come from different host shapes:\n  " +
                         "\n  ".join(sorted(shapes)))
    base, new = medians(base_runs), medians(new_runs)
    rows, worse = [], False
    for metric in spec["end_to_end"]:
        for key in sorted(k for k in base if k[1] == metric["name"]):
            if key not in new:
                continue
            c = change(base[key], new[key], metric["better"])
            flag = c > metric["bound"]
            worse |= flag
            rows.append((key[0], key[1], base[key], new[key], c, flag))
    return rows, worse


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(argv[0]) as f:
        base_runs = parse_runs(f.read())
    with open(argv[1]) as f:
        new_runs = parse_runs(f.read())
    try:
        rows, worse = compare(base_runs, new_runs, spec)
    except ValueError as e:
        print(f"compare: refusing: {e}", file=sys.stderr)
        return 2
    for workload, name, b, n, c, flag in rows:
        print(f"{workload:14} {name:22} {b:14.6g} {n:14.6g} "
              f"{100 * c:+7.2f}% worse{'  REGRESSION' if flag else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
