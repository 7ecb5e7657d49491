#!/usr/bin/env python3
"""Builds and runs the pay-as-you-go wrangling benchmark.

    python3 wranglebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wranglebench/run.py --selftest

Run from anywhere inside a checkout of the repository. The benchmark and
the library sources under src/ are compiled (Release) into
.bench_build/wranglebench at the repository root; later runs rebuild only
what changed. The last line of standard output is the result as one JSON
object. See wranglebench/RATIONALE.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wranglebench"
# The benchmark stops itself well before this; the limit only bounds a
# run that hangs.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds; returns False (after logging) on failure."""
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs `cmd`, echoing its standard output; returns its exit code."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    if not build():
        return 2
    if args.selftest:
        return run([str(BUILD / "wranglebench_selftest"),
                    str(ROOT / "BENCHMARK.json")])
    return run([str(BUILD / "wranglebench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--workdir", str(BUILD / "run")])


if __name__ == "__main__":
    sys.exit(main())
