#!/usr/bin/env bash
# Builds the comm substrate and the chaos suite under ThreadSanitizer
# (and optionally AddressSanitizer / UndefinedBehaviorSanitizer) and
# runs the concurrency-sensitive tests. The thread mode runs them under
# RTC_EXECUTOR=threaded, one real thread per rank, so TSan is the
# authoritative race check for the mailbox/death/barrier paths —
# including the fault-injection ones that crash ranks mid-run. Under
# the pooled executor (the default) ranks are fibers: every fiber
# switch synchronizes (__tsan_switch_to_fiber with flags 0) and park,
# wake and finish take the one pool mutex, so TSan misses a race
# between ranks once they have exchanged a message. The two tests that
# need more ranks than the threaded executor's cap select the pooled
# executor themselves. The address and undefined modes run the default
# pooled executor, whose fiber stacks they check. They also cover
# the SIMD kernel/codec suites: vector loads with scalar tails are
# exactly where an off-by-one reads past a span. The quality-ladder
# suite runs in every mode: the approximate blend's skip loop and the
# progressive down/upsample resamplers index pixel spans directly. The
# address and undefined modes also run the renderer suite, whose
# shear-warp loops index the intermediate image and clip the warp to
# the brick's screen box. Every mode runs blend_radix_test and
# conformance_fuzz_test: they drive radix, pp_exact and aggregated
# messages through the one receive path (compositing::recv_blocks).
#
# Usage: scripts/check_sanitizers.sh [thread|address|undefined|all]
# (default: all). $BUILD_DIR overrides the build-directory prefix
# (default: build), so CI can keep per-job caches apart: the mode
# builds into "${BUILD_DIR}-thread" / "${BUILD_DIR}-address" /
# "${BUILD_DIR}-undefined".
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
THREAD_TESTS="world_test|frame_test|chaos_test|wire_test|methods_test|fuzz_corpus_test|membership_test|recompose_test|breaker_test|executor_test|hierarchical_test|quality_test|blend_radix_test|conformance_fuzz_test"
MEMORY_TESTS="$THREAD_TESTS|simd_kernels_test|simd_dispatch_test|ops_test|codec_test|trle_test|render_test"
MEMORY_TARGETS="simd_kernels_test simd_dispatch_test ops_test codec_test trle_test render_test"

run_mode() {
  local san="$1"
  local tests="$2"
  local extra_targets="$3"
  local executor="$4"
  local dir="${BUILD_DIR:-build}-$san"
  echo "== RTC_SANITIZE=$san, RTC_EXECUTOR=$executor =="
  cmake -B "$dir" -S . -DRTC_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  # shellcheck disable=SC2086  # extra_targets is a word list
  cmake --build "$dir" -j --target \
        world_test frame_test chaos_test wire_test methods_test \
        fuzz_corpus_test membership_test recompose_test breaker_test \
        executor_test hierarchical_test quality_test blend_radix_test \
        conformance_fuzz_test $extra_targets
  # Same per-test timeout CI uses: a sanitizer-found deadlock should
  # fail the run, not hang it.
  (cd "$dir" && RTC_EXECUTOR="$executor" \
       ctest --output-on-failure -j "$(nproc)" --timeout 120 -R "$tests")
}

case "$MODE" in
  thread)    run_mode thread "$THREAD_TESTS" "" threaded ;;
  address)   run_mode address "$MEMORY_TESTS" "$MEMORY_TARGETS" pooled ;;
  undefined) run_mode undefined "$MEMORY_TESTS" "$MEMORY_TARGETS" pooled ;;
  all)
    run_mode thread "$THREAD_TESTS" "" threaded
    run_mode address "$MEMORY_TESTS" "$MEMORY_TARGETS" pooled
    run_mode undefined "$MEMORY_TESTS" "$MEMORY_TARGETS" pooled
    ;;
  *) echo "usage: $0 [thread|address|undefined|all]" >&2; exit 2 ;;
esac
echo "sanitizer checks passed"
