#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep|composite|service \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
a Release tree under .bench_build/perfbench (CMake, from ../src and this
directory); later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 when every correctness check passed.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/ next to "
                 "perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    r = subprocess.run([binary] + sys.argv[1:])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
