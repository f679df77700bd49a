#!/usr/bin/env python3
"""Build and run the sda benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which compiles the sda
library from src/) into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the repository root.  Build output goes to
standard error; the run's log and, as its last line, the JSON result go to
standard output.  Any build or run failure exits non-zero without a result.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "sda_perfbench",
         "perfbench_selftest"],
        check=True, stdout=sys.stderr)


def selftest(out):
    cpp = subprocess.run([os.path.join(out, "perfbench_selftest")])
    py = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 0 if cpp.returncode == 0 and py.returncode == 0 else 1


def main(argv):
    # A SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the build step or benchmark process in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return selftest(out)

    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(out, "sda_perfbench")] + argv + ["--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
