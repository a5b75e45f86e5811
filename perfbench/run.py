#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload read_short_hot --seed 1 \
        --seconds 8 --trace 0

Builds the harness and the library from source with CMake into
.bench_build/perfbench (compiler output goes to stderr), runs one workload,
and relays the harness's report. The last line of stdout is the JSON
result: {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "lsm", "db.h")):
        print("library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if not run_logged(configure, BUILD_TIMEOUT_S):
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if not run_logged(configure, BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      BUILD_TIMEOUT_S):
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dir", RUN_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"harness exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except json.JSONDecodeError:
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("harness printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
