#!/usr/bin/env bash
# Wall-clock kernel-throughput floor gate.
#
# Unlike the virtual-time goldens (check_bench_golden.sh), wall-clock
# numbers ARE statistics: they move with the machine, the load, and
# the compiler. So this gate does not bit-compare — it runs
# `bench_micro --wallclock --json` and checks two robust properties
# against the pinned floor file bench/golden/wallclock_floor.json:
#
#   1. absolute floors: each kernel/level stays above a generous
#      fraction (the --update default records measured * 0.25) of the
#      throughput measured when the floor was pinned — catching
#      "kernel silently fell off the fast path" regressions while
#      shrugging off CI noise;
#   2. relative speedups: on hardware that supports them, the SIMD
#      levels of the gated kernels must beat scalar by min_speedup —
#      the property the whole dispatch layer exists for.
#
# Floor entries for levels this machine cannot run (e.g. avx2 floors
# on an sse2-only box) are skipped with a note, so one floor file
# serves heterogeneous runners.
#
# Usage: scripts/check_wallclock.sh [build-dir]
#        (default: $BUILD_DIR, then build)
# To re-pin after an intentional change or on a new reference machine:
#        scripts/check_wallclock.sh --update [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
BUILD="${1:-${BUILD_DIR:-build}}"
FLOOR=bench/golden/wallclock_floor.json
OUT="${WALLCLOCK_JSON:-BENCH_wallclock.json}"

echo "== bench_micro --wallclock -> $OUT =="
timeout 600 "$BUILD/bench/bench_micro" --wallclock --json "$OUT"

if [ "$UPDATE" -eq 1 ]; then
  python3 - "$OUT" "$FLOOR" <<'EOF'
import json, sys

out_path, floor_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    result = json.load(f)

# Floors at 25% of the reference machine's measurement: generous
# enough for shared CI runners, tight enough that a kernel dropping to
# scalar-without-SIMD or an accidentally quadratic encode still trips.
floors = {key: round(r["mpix_s"] * 0.25, 3)
          for key, r in result["kernels"].items()}
floor = {
    "comment": "throughput floors pinned by check_wallclock.sh --update",
    "image": result["image"],
    "min_speedup": 1.2,
    "speedup_kernels": ["over_back", "trle_decode_blend", "crc32"],
    "floors_mpix_s": floors,
}
with open(floor_path, "w") as f:
    json.dump(floor, f, indent=2)
    f.write("\n")
print(f"updated {floor_path} ({len(floors)} floors)")
EOF
  exit 0
fi

python3 - "$OUT" "$FLOOR" <<'EOF'
import json, sys

out_path, floor_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    result = json.load(f)
with open(floor_path) as f:
    floor = json.load(f)

kernels = result["kernels"]
speedups = result.get("speedup", {})
fail = False

for key, want in sorted(floor["floors_mpix_s"].items()):
    got = kernels.get(key)
    if got is None:
        print(f"skip {key}: level not supported on this machine")
        continue
    mpix = got["mpix_s"]
    status = "ok  " if mpix >= want else "FAIL"
    print(f"{status} {key}: {mpix:.1f} Mpix/s (floor {want})")
    if mpix < want:
        fail = True

min_speedup = floor["min_speedup"]
for kernel in floor["speedup_kernels"]:
    # Gate only the highest level this machine supports: that is what
    # `auto` dispatch actually runs. Lower levels (sse2 on an avx2 box)
    # are correctness-tested but not perf-gated — on wide-vector CPUs
    # they can legitimately tie well-autovectorized scalar.
    best = next((f"{kernel}/{lv}" for lv in ("avx2", "sse2")
                 if f"{kernel}/{lv}" in speedups), None)
    if best is None:
        print(f"skip speedup {kernel}: no SIMD level on this machine")
        continue
    s = speedups[best]
    status = "ok  " if s >= min_speedup else "FAIL"
    print(f"{status} speedup {best}: {s:.2f}x (min {min_speedup}x)")
    if s < min_speedup:
        fail = True

if fail:
    print("wall-clock floor check FAILED — a kernel regressed below its")
    print("pinned throughput floor or lost its SIMD speedup. If the")
    print("change is intentional (or the reference machine changed),")
    print("re-pin with: scripts/check_wallclock.sh --update")
    sys.exit(1)
print("all wall-clock floors hold")
EOF
