#!/usr/bin/env python3
"""Exact-count self-check of the end-to-end benchmark.

    python3 perfbench/selfcheck.py

For each workload it runs the benchmark three times with seed 7: twice
untraced and once traced. Every run must pass its own correctness checks,
and the deterministic counts it prints on its "counts {...}" line
(messages, bytes, coherence hits, submissions, sheds, degrades and the
model_* virtual times, all to 17 digits) must be identical across the
three runs. Equality across the untraced pair shows the counts repeat
bit for bit; equality with the traced run shows that tracing never
perturbs the run. The traced run additionally checks, in-process, that
its images are byte-identical to an untraced pass. Exits 0 when all
checks pass. Takes about two minutes on a 4-core machine.
"""
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

SEED = 7
WORKLOADS = ["sweep", "composite", "service"]
LABELS = ("untraced", "repeat", "traced")


def run_once(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    counts = [l for l in lines if l.startswith("counts ")]
    result = json.loads(lines[-1]) if lines else {}
    ok = p.returncode == 0 and result.get("correct") is True and counts
    if not ok:
        sys.stderr.write(p.stderr)
    return ok, json.loads(counts[0][len("counts "):]) if counts else {}


def main():
    binary = bench.build()
    failures = 0
    for w in WORKLOADS:
        runs = [run_once(binary, w, t) for t in (0, 0, 1)]
        problems = [f"{label} run failed its checks"
                    for (ok, _), label in zip(runs, LABELS) if not ok]
        ref = runs[0][1]
        for (_, counts), label in zip(runs[1:], LABELS[1:]):
            diff = sorted(k for k in set(ref) | set(counts)
                          if ref.get(k) != counts.get(k))
            if diff:
                problems.append(f"{label} counts differ: {', '.join(diff)}")
        for p in problems:
            print(f"FAIL {w}: {p}")
        if not problems:
            print(f"ok   {w}: {len(ref)} counts identical across "
                  "untraced, repeat and traced runs")
        failures += len(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
