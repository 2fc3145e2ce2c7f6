#!/usr/bin/env bash
# Verification sweep: for each mode, configure, build and run the whole
# ctest suite -- plain, under ThreadSanitizer and under
# AddressSanitizer/UBSan (the SR_SANITIZE CMake option). The CLI drills
# (ctest label `drill`, tools/CMakeLists.txt) run in every mode; a tsan
# build adds the race_drill positive control, a WILL_FAIL test that fails
# when TSan misses a known race. The parallel engine must be TSan-clean:
# any data race in ParallelFor, the work-stealing pool or RunSuite is a
# bug, not noise.
#
# Usage:
#   tools/check.sh            # plain + tsan + asan, full ctest each
#   tools/check.sh plain      # any subset of: plain tsan asan
#   SR_CHECK_FILTER='Parallel|GoldenValues' tools/check.sh tsan
#
# SR_CHECK_FILTER is passed to `ctest -R`. Build trees land in
# build-check-<mode>/ so they never disturb ./build.

set -euo pipefail
cd "$(dirname "$0")/.."

MODES=("$@")
[ ${#MODES[@]} -eq 0 ] && MODES=(plain tsan asan)
FILTER="${SR_CHECK_FILTER:-}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_mode() {
  local mode="$1" sanitize="" dir="build-check-$1"
  case "$mode" in
    plain) sanitize="" ;;
    tsan)  sanitize="thread" ;;
    asan)  sanitize="address" ;;
    *) echo "unknown mode '$mode' (want plain|tsan|asan)" >&2; exit 2 ;;
  esac

  echo "=== [$mode] configure + build (SR_SANITIZE='$sanitize') ==="
  cmake -B "$dir" -S . -DSR_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$dir" -j "$JOBS"

  echo "=== [$mode] ctest ==="
  local ctest_args=(--output-on-failure --test-dir "$dir")
  [ -n "$FILTER" ] && ctest_args+=(-R "$FILTER")
  # The drills inherit these options. TSan's halt_on_error makes any
  # reported race fail its test; second_deadlock_stack improves lock-order
  # reports from the pool's two-mutex design. ASan aborts on error by
  # default; detect_leaks=0 because telemetry's per-thread span stacks
  # are leaked on purpose (src/common/telemetry.cc).
  case "$mode" in
    tsan) TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
            ctest "${ctest_args[@]}" ;;
    asan) ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
            ctest "${ctest_args[@]}" ;;
    *)    ctest "${ctest_args[@]}" -j "$JOBS" ;;
  esac
  echo "=== [$mode] OK ==="
}

for mode in "${MODES[@]}"; do run_mode "$mode"; done
echo "All checks passed: ${MODES[*]}"
