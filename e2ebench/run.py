#!/usr/bin/env python3
"""Build and run the doceph end-to-end benchmark.

    python3 e2ebench/run.py --workload write_1m --seed 1 --seconds 5 --trace 0

Builds the doceph library from src/ plus the benchmark (CMake, Release) into
.bench_build/ at the repository root, runs the benchmark's self-test, then
runs the workload in both deploy modes, measuring each for --seconds of
simulated time (and at least 3000 ops). The last stdout line is the result
JSON: end-to-end metrics with --trace 0, per-layer metrics and span self
times with --trace 1. `--workload all` runs every workload in turn and ends
by listing the layer metrics that read zero on all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("write_1m", "write_16k", "read_1m")


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no doceph sources at src/; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "e2ebench",
         "e2ebench_selftest"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"e2ebench: build failed (see {log_path})")
    if subprocess.run([str(BUILD / "e2ebench_selftest")],
                      stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit("e2ebench: self-test failed")


def run_one(workload: str, args: argparse.Namespace) -> tuple[int, dict | None]:
    cmd = [str(BUILD / "e2ebench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    if args.workload != "all":
        return run_one(args.workload, args)[0]

    status = 0
    zero_everywhere: set[str] | None = None
    for workload in WORKLOADS:
        code, result = run_one(workload, args)
        status = status or code
        if result is None:
            continue
        zeros = {name for name, m in result["metrics"].items() if m["value"] == 0}
        zero_everywhere = zeros if zero_everywhere is None else zero_everywhere & zeros
    if args.trace:
        listed = " ".join(sorted(zero_everywhere or ())) or "none"
        print(f"verdict: layer metrics reading zero on every workload: {listed}")
    return status


if __name__ == "__main__":
    sys.exit(main())
