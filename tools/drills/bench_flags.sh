#!/bin/sh
# Bench flag drill, in the current directory: every bench binary refuses
# an unknown flag, a misspelled --threads, an unknown --log-level and
# (all but perf_scalability,
# which hands them to google-benchmark) a google-benchmark flag, each
# with exit 2 before any work, so no bench_results/BENCH_<name>.json and
# no ledger line is left behind; `--help` exits 0 and writes nothing
# either. A flag that google-benchmark refuses is refused just as early.
#
#   bench_flags.sh BENCH...
set -eu
fail() { echo "bench flag drill FAILED: $*" >&2; exit 1; }

# refused BENCH ARGS...: exit 2 within seconds, and no manifest.
refused() {
  b=$1; shift
  rc=0; timeout 20 "$b" "$@" >/dev/null 2>err.txt || rc=$?
  [ $rc -eq 2 ] || fail "$(basename "$b") $*: exit $rc, want 2"
  [ ! -e "bench_results/BENCH_$(basename "$b").json" ] ||
    fail "$(basename "$b") $*: left a manifest"
}

for b in "$@"; do
  refused "$b" --bogus 1
  grep -q 'unknown flag(s): --bogus' err.txt || fail "$b: $(cat err.txt)"
  refused "$b" --thread 4
  grep -q 'unknown flag(s): --thread$' err.txt || fail "$b: $(cat err.txt)"
  refused "$b" --log-level loud
  if [ "$(basename "$b")" = perf_scalability ]; then
    refused "$b" --benchmark_bogus=1
  else
    refused "$b" --benchmark_filter=x
  fi
  timeout 20 "$b" --threads 2 --ledger none --help >help.txt ||
    fail "$b --help exited nonzero"
  grep -q -- '--threads' help.txt || fail "$b --help lists no --threads"
  [ ! -e "bench_results/BENCH_$(basename "$b").json" ] ||
    fail "$(basename "$b") --help: left a manifest"
done
[ $# -ge 16 ] || fail "only $# bench binaries"
[ ! -e bench_results ] || fail "a refused run or --help wrote bench_results/"
