#!/usr/bin/env bash
# Build the benchmark binary (RelWithDebInfo, into build/benchmark) and run
# workloads. Each workload runs in its own process.
#
#   benchmark/run.sh                      all four workloads, default seed
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                    [--threads N] [--smoke] [--record FILE]
#
# Other flags are passed to stemroot_bench (see benchmark/main.cc). The last
# line of a single-workload run is its JSON result. Exits non-zero when a
# correctness check fails. Everything it writes stays under build/benchmark.
set -euo pipefail

cd "$(dirname "$0")/.."
build=build/benchmark
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp"

if ! cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSR_SANITIZE= > "$build/configure.log" 2>&1; then
  cat "$build/configure.log" >&2
  exit 1
fi
if ! cmake --build "$build" --target stemroot_bench -j "$(nproc)" \
  > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  exit 1
fi

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--workload" && $((i + 1)) -lt ${#args[@]} ]]; then
    workload="${args[i + 1]}"
  fi
done

run_one() {
  "$build/stemroot_bench" --work-dir "$build/work/$1-$$" \
    --golden benchmark/golden.json --record "$build/runs.jsonl" \
    --trace-file "$build/traces/$1.json" --workload "$@"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$@"
  exit
fi

status=0
for w in batch_hf dse_sweep stream_ooc serve_sessions; do
  run_one "$w" "$@" || status=1
done
exit "$status"
