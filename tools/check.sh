#!/usr/bin/env bash
# Full verification sweep: plain build + ctest, then the same suite under
# ThreadSanitizer and AddressSanitizer/UBSan (the SR_SANITIZE CMake
# option). The parallel evaluation engine must be TSan-clean -- any data
# race in ParallelFor / the work-stealing pool / RunSuite is a bug, not
# noise.
#
# Each mode also drills the out-of-core chunked-trace path (DESIGN.md
# §16): a spilled run must compare byte-identical to the in-memory run,
# a bounded-memory `stemroot stream` must keep its logical trace peak
# under the chunk budget and compare clean at 1, 2 and 4 threads, a warm
# rerun must reuse the verified spill,
# and a corrupted or truncated spill file must trigger a clean rebuild,
# never a crash or silent bad data. The CLI trace-file drill round-trips
# an SRTC trace file through generate, an in-place profile and info, and
# a flipped chunk byte must fail info cleanly.
#
# After ctest, every mode smoke-runs the `stemroot run` pipeline with
# --telemetry (JSON and CSV) and --trace, each export gated on
# `stemroot validate`, then `stemroot audit` with a 95%
# within-budget floor at --threads 1 and 4: a malformed export, a missing
# pipeline stage span or trace event, a broken error model, or audit
# exports that differ between the two thread counts fail the sweep.
# Each mode then drills the content-addressed profile cache: a cold run
# must store, a warm run must hit (and compare byte-identical to the cold
# run at a different thread count), and a deliberately truncated entry
# must fall back to a clean recompute.
#
# Usage:
#   tools/check.sh            # plain + tsan + asan, full ctest each
#   tools/check.sh plain      # any subset of: plain tsan asan
#   SR_CHECK_FILTER='Parallel|GoldenValues' tools/check.sh tsan
#
# Build trees land in build-check-<mode>/ so they never disturb ./build.

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
  # TSan option halt_on_error makes any reported race fail the test;
  # ASan aborts on error by default. second_deadlock_stack improves
  # lock-order reports from the pool's two-mutex design.
  case "$mode" in
    tsan) TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
            ctest "${ctest_args[@]}" ;;
    asan) ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
            ctest "${ctest_args[@]}" ;;
    *)    ctest "${ctest_args[@]}" -j "$JOBS" ;;
  esac

  echo "=== [$mode] telemetry smoke (stemroot run + validate telemetry) ==="
  # Same sanitizer runtime options as the ctest runs above; in particular
  # detect_leaks=0 -- the telemetry span stacks are intentionally leaked
  # per-thread state (see src/common/telemetry.cc).
  local san_env=(ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1"
                 TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1")
  # Smoke runs share one per-mode cache directory (never the repo-level
  # default bench_results/cache) so the sweep is hermetic; the dedicated
  # cache drill below uses a separate directory it corrupts on purpose.
  local smoke_cache="$dir/cache-smoke"
  local smoke="$dir/telemetry-smoke.json"
  local smoke_csv="$dir/telemetry-smoke.csv"
  local trace="$dir/trace-smoke.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --threads 4 \
      --cache "$smoke_cache" \
      --telemetry "$smoke" --trace "$trace" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate telemetry "$smoke" \
      --require-stage generate,profile,cluster,sample,evaluate

  echo "=== [$mode] trace smoke (validate trace on the --trace export) ==="
  # --threads 4 above guarantees the parallel.chunk scopes exist; the
  # stage scopes come from the pipeline spans feeding the trace layer.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate trace "$trace" \
      --require-event cluster,kkt.solve,parallel.chunk --min-events 10

  echo "=== [$mode] truncated-export drill (validate rejects cut files) ==="
  # A telemetry export and a trace export cut short mid-document must
  # each fail validation.
  head -c 200 "$smoke" > "$dir/telemetry-cut.json"
  head -c 200 "$trace" > "$dir/trace-cut.json"
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" validate telemetry "$dir/telemetry-cut.json" \
      2>/dev/null
  then
    echo "truncated-export drill FAILED: cut telemetry accepted" >&2; exit 1
  fi
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" validate trace "$dir/trace-cut.json" \
      2>/dev/null
  then
    echo "truncated-export drill FAILED: cut trace accepted" >&2; exit 1
  fi

  echo "=== [$mode] telemetry CSV round-trip (validate telemetry .csv) ==="
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 1 --threads 2 \
      --cache "$smoke_cache" \
      --telemetry "$smoke_csv" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate telemetry "$smoke_csv"

  echo "=== [$mode] audit smoke (stemroot audit --min-within 0.95) ==="
  # Once at --threads 1 and once at --threads 4: the trials' plans come
  # from one shared clustering (fanned out per kernel) and parallel
  # draws, and the two exports must be byte-identical.
  for t in 1 4; do
    env "${san_env[@]}" \
      "$dir/tools/stemroot" audit --suite rodinia --workload bfs,hotspot \
        --seed 42 --trials 3 --min-within 0.95 --threads "$t" \
        --cache "$smoke_cache" --json "$dir/audit-smoke-t$t.json" >/dev/null
  done
  cmp "$dir/audit-smoke-t1.json" "$dir/audit-smoke-t4.json" || {
    echo "audit smoke FAILED: --threads 1 and 4 exports differ" >&2; exit 1; }

  echo "=== [$mode] manifest smoke (run manifests + validate manifest) ==="
  # Two identical-seed runs at different --threads: the manifests must
  # validate, and `stemroot compare` must find zero deterministic drift
  # (the determinism contract made machine-checkable).
  local man_a="$dir/manifest-a.json" man_b="$dir/manifest-b.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 42 --threads 1 \
      --cache "$smoke_cache" --manifest "$man_a" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 42 --threads 4 \
      --cache "$smoke_cache" --manifest "$man_b" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_a" "$man_b" \
      --require-stage generate,profile,cluster,sample,evaluate \
      --require-completed true
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_a" "$man_b" >/dev/null

  echo "=== [$mode] regress drill (ledger gating catches forged faults) ==="
  # Build a synthetic zero-noise ledger by replaying one real manifest,
  # then forge (a) a 5% evaluate-stage slowdown and (b) an
  # accuracy-budget violation, and assert `stemroot regress` exits
  # nonzero on each. Replayed clones keep the drill deterministic: the
  # baseline MAD is 0, so the threshold is the 2% rel_slack floor.
  local drill="$dir/regress-drill"
  rm -rf "$drill"; mkdir -p "$drill"
  for _ in 1 2 3; do
    env "${san_env[@]}" \
      "$dir/tools/stemroot" validate manifest "$man_a" \
        --append-to "$drill/ledger.jsonl" >/dev/null
  done
  env "${san_env[@]}" \
    "$dir/tools/stemroot" regress --ledger "$drill/ledger.jsonl" >/dev/null

  cp "$drill/ledger.jsonl" "$drill/slow.jsonl"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_a" \
      --scale-stage evaluate=1.05 \
      --append-to "$drill/slow.jsonl" >/dev/null
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" regress --ledger "$drill/slow.jsonl" >/dev/null
  then
    echo "regress drill FAILED: 5% slowdown not detected" >&2; exit 1
  fi

  cp "$drill/ledger.jsonl" "$drill/inaccurate.jsonl"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_a" \
      --set-error-pct 99 \
      --append-to "$drill/inaccurate.jsonl" >/dev/null
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" regress --ledger "$drill/inaccurate.jsonl" \
      >/dev/null
  then
    echo "regress drill FAILED: accuracy violation not detected" >&2; exit 1
  fi

  echo "=== [$mode] mem drill (memory-aware gating, DESIGN.md §15) ==="
  # The two identical-seed manifests above (threads 1 vs 4) must both
  # carry a populated mem block: a physical peak plus logical category
  # peaks. The `stemroot compare` in the manifest smoke already proved
  # the logical peaks byte-identical across thread counts.
  for m in "$man_a" "$man_b"; do
    grep -q '"peak_rss_bytes"' "$m" && grep -q '"logical"' "$m" || {
      echo "mem drill FAILED: $m lacks a populated mem block" >&2; exit 1; }
  done
  # Forged physical blow-up: a 1 TiB peak-RSS entry on a stable baseline
  # must trip the mem:peak_rss gate.
  cp "$drill/ledger.jsonl" "$drill/hog.jsonl"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_a" \
      --set-mem peak_rss=1099511627776 \
      --append-to "$drill/hog.jsonl" >/dev/null
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" regress --ledger "$drill/hog.jsonl" >/dev/null
  then
    echo "mem drill FAILED: inflated peak RSS not detected" >&2; exit 1
  fi
  # Forged logical blow-up: an inflated deterministic category must trip
  # its mem:<category> gate the same way.
  cp "$drill/ledger.jsonl" "$drill/bloat.jsonl"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_a" \
      --set-mem trace=1099511627776 \
      --append-to "$drill/bloat.jsonl" >/dev/null
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" regress --ledger "$drill/bloat.jsonl" >/dev/null
  then
    echo "mem drill FAILED: inflated logical mem not detected" >&2; exit 1
  fi

  echo "=== [$mode] serve drill (resident service, two concurrent sessions) ==="
  # Host the resident service on an AF_UNIX socket and drive it with the
  # line-delimited JSON protocol: open two sessions over one setup
  # connection (ids are deterministic: 1 then 2), then run two clients
  # CONCURRENTLY against them. Session 1 feeds its full trace in timeline
  # order -- the replay-equivalence contract says its close manifest must
  # compare clean against the matching batch `stemroot run`. Session 2
  # feeds shuffled chunks and must early-stop (converged with only part
  # of the trace seen), proven by a nonzero service.early_stops counter.
  # The server also exercises the live-introspection surface (DESIGN.md
  # §14): a Prometheus exposition file rewritten every 0.5s, a structured
  # event journal, and the stats verb -- all gated below by validate.
  local sdir="$dir/serve-drill"
  rm -rf "$sdir"; mkdir -p "$sdir"
  local sock="$sdir/sock"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" serve --socket "$sock" --cache "$smoke_cache" \
      --metrics "$sdir/metrics.prom" --metrics-interval 0.5 \
      --journal "$sdir/journal.jsonl" \
      >"$sdir/serve.log" 2>&1 &
  local serve_pid=$!
  for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
  if ! [ -S "$sock" ]; then
    echo "serve drill FAILED: server socket never appeared" >&2
    cat "$sdir/serve.log" >&2; exit 1
  fi

  cat > "$sdir/setup.jsonl" <<SETUP
{"op":"open","suite":"casio","workload":"bert_infer","scale":0.02,"seed":42,"reps":2,"order":"timeline"}
{"op":"open","suite":"casio","workload":"bert_infer","scale":0.2,"seed":99,"reps":2,"epsilon":0.05,"order":"shuffled"}
SETUP
  cat > "$sdir/full.jsonl" <<FULL
{"op":"feed","id":1,"count":1000000000}
{"op":"eval","id":1}
{"op":"close","id":1,"manifest":"$sdir/session-full.json"}
FULL
  cat > "$sdir/early.jsonl" <<EARLY
{"op":"feed","id":2,"count":1024}
{"op":"feed","id":2,"count":1024}
{"op":"feed","id":2,"count":1024}
{"op":"feed","id":2,"count":1024}
{"op":"query","id":2}
{"op":"close","id":2,"manifest":"$sdir/session-early.json"}
EARLY
  env "${san_env[@]}" \
    "$dir/tools/stemroot" session --socket "$sock" --fail-on-error true \
      --script "$sdir/setup.jsonl" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" session --socket "$sock" --fail-on-error true \
      --script "$sdir/full.jsonl" >"$sdir/full.out" &
  local full_pid=$!
  env "${san_env[@]}" \
    "$dir/tools/stemroot" session --socket "$sock" --fail-on-error true \
      --script "$sdir/early.jsonl" >"$sdir/early.out" &
  local early_pid=$!
  wait "$full_pid" || {
    echo "serve drill FAILED: full-feed session errored" >&2
    cat "$sdir/full.out" >&2; exit 1; }
  wait "$early_pid" || {
    echo "serve drill FAILED: early-stop session errored" >&2
    cat "$sdir/early.out" >&2; exit 1; }

  # Live introspection while the server is still up: the stats verb must
  # answer with per-verb latency quantiles, and a mid-run metrics scrape
  # is kept for the counter-monotonicity check against the final one.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" stats --socket "$sock" --json true \
      >"$sdir/stats.json"
  grep -q '"verbs"' "$sdir/stats.json" || {
    echo "serve drill FAILED: stats response lacks per-verb latencies" >&2
    cat "$sdir/stats.json" >&2; exit 1; }
  grep -q '"p99_us"' "$sdir/stats.json" || {
    echo "serve drill FAILED: stats response lacks latency quantiles" >&2
    cat "$sdir/stats.json" >&2; exit 1; }
  env "${san_env[@]}" \
    "$dir/tools/stemroot" stats --socket "$sock" >/dev/null
  for _ in $(seq 1 100); do [ -s "$sdir/metrics.prom" ] && break; sleep 0.1
  done
  if ! [ -s "$sdir/metrics.prom" ]; then
    echo "serve drill FAILED: metrics exposition never appeared" >&2
    cat "$sdir/serve.log" >&2; exit 1
  fi
  cp "$sdir/metrics.prom" "$sdir/metrics-mid.prom"

  env "${san_env[@]}" \
    "$dir/tools/stemroot" session --socket "$sock" --fail-on-error true \
      --script <(echo '{"op":"shutdown"}') >/dev/null
  wait "$serve_pid" || {
    echo "serve drill FAILED: server exited nonzero" >&2
    cat "$sdir/serve.log" >&2; exit 1; }

  # Exposition format + counter monotonicity across the two scrapes, and
  # journal invariants (reserved keys, monotone ts, gap-free seq); the
  # journal's error gate is `stemroot regress --journal` below.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate metrics "$sdir/metrics-mid.prom" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate metrics "$sdir/metrics.prom" \
      --prev "$sdir/metrics-mid.prom" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate journal "$sdir/journal.jsonl" \
      --require-event session.open >/dev/null
  # Serve mode auto-enables the resource sampler: the exposition must
  # carry the process-memory families (validate metrics above already held
  # stemroot_process_hwm_bytes and stemroot_mem_* to high-water
  # monotonicity across the two scrapes).
  for fam in stemroot_process_rss_bytes stemroot_process_hwm_bytes; do
    grep -q "^$fam " "$sdir/metrics.prom" || {
      echo "serve drill FAILED: exposition lacks $fam" >&2
      cat "$sdir/metrics.prom" >&2; exit 1; }
  done
  # The journal pretty-printer round-trips the real service journal and
  # its filters agree with the writer's severity tokens.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" journal tail "$sdir/journal.jsonl" \
      >"$sdir/journal-tail.txt" 2>/dev/null
  grep -q 'session.open' "$sdir/journal-tail.txt" || {
    echo "serve drill FAILED: journal tail lost session.open" >&2; exit 1; }
  env "${san_env[@]}" \
    "$dir/tools/stemroot" journal tail "$sdir/journal.jsonl" \
      --verb session.open >"$sdir/journal-opens.txt" 2>/dev/null
  if grep -qv 'session.open' "$sdir/journal-opens.txt"; then
    echo "serve drill FAILED: --verb filter leaked other events" >&2; exit 1
  fi

  # Session 2 converged on ~4k of ~14k invocations: the manifest must
  # validate and carry the early-stop evidence.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$sdir/session-early.json" \
      --require-completed true \
      --require-counter service.early_stops,service.feed_invocations \
      >/dev/null
  # Session 1 fed everything: byte-identical deterministic fields vs the
  # batch run of the same config (manifest smoke's man_a), despite the
  # different command, thread count, and transport.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$sdir/session-full.json" \
      --require-completed true --require-stage evaluate >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_a" "$sdir/session-full.json" \
      >/dev/null
  # Session manifests carry service.* counters: the counter-name lint
  # (part of every manifest validation) must accept the registered set...
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$sdir/session-early.json" \
      >/dev/null
  # ...and the journal is machine-gateable: a clean run passes
  # `stemroot regress --journal`, a forged error event trips it.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" regress --journal "$sdir/journal.jsonl" \
      >/dev/null
  cp "$sdir/journal.jsonl" "$sdir/journal-bad.jsonl"
  printf '%s\n' \
    '{"ts_us":9999999999,"tid":1,"seq":999999,"sev":"error","event":"forged.crash"}' \
    >> "$sdir/journal-bad.jsonl"
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" regress --journal "$sdir/journal-bad.jsonl" \
      >/dev/null
  then
    echo "serve drill FAILED: journal error event not gated" >&2; exit 1
  fi

  echo "=== [$mode] serve drill (two cold opens of one config) ==="
  # Two clients open the same (suite, workload, scale, seed) at once
  # against a fresh cache directory, so both may generate the trace and
  # store the same cache key. Their sessions then feed, evaluate and
  # close concurrently. Both manifests must compare clean against each
  # other and against the batch run of the same config (man_a), and the
  # cache must hold one verified entry and no temp files.
  local cdir="$dir/serve-cold"
  rm -rf "$cdir"; mkdir -p "$cdir"
  local csock="$cdir/sock"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" serve --socket "$csock" --cache "$cdir/cache" \
      >"$cdir/serve.log" 2>&1 &
  local cold_pid=$!
  for _ in $(seq 1 100); do [ -S "$csock" ] && break; sleep 0.1; done
  if ! [ -S "$csock" ]; then
    echo "serve drill FAILED: cold-open server socket never appeared" >&2
    cat "$cdir/serve.log" >&2; exit 1
  fi
  local client_pids=() pid
  for c in a b; do
    echo '{"op":"open","suite":"casio","workload":"bert_infer","scale":0.02,"seed":42,"reps":2,"order":"timeline"}' \
      >"$cdir/open-$c.jsonl"
    env "${san_env[@]}" \
      "$dir/tools/stemroot" session --socket "$csock" --fail-on-error true \
        --script "$cdir/open-$c.jsonl" >"$cdir/open-$c.out" &
    client_pids+=($!)
  done
  for pid in "${client_pids[@]}"; do
    wait "$pid" || {
      echo "serve drill FAILED: concurrent cold open errored" >&2
      cat "$cdir"/open-*.out >&2; exit 1; }
  done
  # The two sessions are ids 1 and 2, whichever open finished first.
  client_pids=()
  for id in 1 2; do
    cat > "$cdir/run-$id.jsonl" <<RUN
{"op":"feed","id":$id,"count":1000000000}
{"op":"eval","id":$id}
{"op":"close","id":$id,"manifest":"$cdir/session-$id.json"}
RUN
    env "${san_env[@]}" \
      "$dir/tools/stemroot" session --socket "$csock" --fail-on-error true \
        --script "$cdir/run-$id.jsonl" >"$cdir/run-$id.out" &
    client_pids+=($!)
  done
  for pid in "${client_pids[@]}"; do
    wait "$pid" || {
      echo "serve drill FAILED: concurrent feed/eval/close errored" >&2
      cat "$cdir"/run-*.out >&2; exit 1; }
  done
  env "${san_env[@]}" \
    "$dir/tools/stemroot" session --socket "$csock" --fail-on-error true \
      --script <(echo '{"op":"shutdown"}') >/dev/null
  wait "$cold_pid" || {
    echo "serve drill FAILED: cold-open server exited nonzero" >&2
    cat "$cdir/serve.log" >&2; exit 1; }
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$cdir/session-1.json" \
      "$cdir/session-2.json" --require-completed true \
      --require-stage evaluate >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$cdir/session-1.json" \
      "$cdir/session-2.json" >/dev/null
  for id in 1 2; do
    env "${san_env[@]}" \
      "$dir/tools/stemroot" compare "$man_a" "$cdir/session-$id.json" \
        >/dev/null
  done
  env "${san_env[@]}" \
    "$dir/tools/stemroot" cache verify --cache "$cdir/cache" >/dev/null
  if ls "$cdir/cache" | grep -q '\.tmp\.'; then
    echo "serve drill FAILED: temp files left in the cache" >&2
    ls "$cdir/cache" >&2; exit 1
  fi

  if [ "$mode" = tsan ]; then
    echo "=== [$mode] race drill (TSan positive control) ==="
    # tools/race_drill races on purpose; a TSan build that does NOT
    # report it would also miss real engine races, so a zero exit here
    # fails the sweep.
    if env TSAN_OPTIONS="halt_on_error=1" "$dir/tools/race_drill" \
        >/dev/null 2>&1
    then
      echo "race drill FAILED: TSan did not trip on a known race" >&2
      exit 1
    fi
  fi

  echo "=== [$mode] cache drill (cold store, warm hit, corrupt fallback) ==="
  # Cold run into a fresh cache: misses, then stores the profiled trace.
  local cdir="$dir/cache-drill"
  rm -rf "$cdir"
  local man_cold="$dir/manifest-cold.json" man_warm="$dir/manifest-warm.json"
  local man_recover="$dir/manifest-recover.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 7 --threads 2 \
      --cache "$cdir" --manifest "$man_cold" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_cold" \
      --require-completed true \
      --require-counter cache.miss,cache.store >/dev/null
  env "${san_env[@]}" "$dir/tools/stemroot" cache stats --cache "$cdir"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" cache verify --cache "$cdir" >/dev/null

  # Warm run at a different thread count: generate+profile must hit the
  # cache, spend no more stage time than the cold run, and stay
  # byte-identical in every deterministic manifest field.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 7 --threads 4 \
      --cache "$cdir" --manifest "$man_warm" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_warm" \
      --require-completed true \
      --require-counter cache.hit \
      --stage-leq generate="$man_cold",profile="$man_cold" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_cold" "$man_warm" >/dev/null

  # Flip one byte in the middle of the payload, keeping the length: only
  # the payload checksum can catch this. Verify must name the mismatch,
  # and the next run must count cache.corrupt and recompute with zero
  # drift (it re-stores a clean entry).
  local centry csz cmid cbyte
  centry="$(ls "$cdir"/*.srce | head -n 1)"
  csz="$(wc -c < "$centry")"
  cmid="$((csz / 2))"
  cbyte="$(od -An -tu1 -j "$cmid" -N1 "$centry" | tr -d ' ')"
  printf "$(printf '\\%03o' "$((cbyte ^ 0xff))")" | \
    dd of="$centry" bs=1 seek="$cmid" count=1 conv=notrunc 2>/dev/null
  if [ "$(wc -c < "$centry")" -ne "$csz" ]; then
    echo "cache drill FAILED: byte flip changed the entry length" >&2; exit 1
  fi
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" cache verify --cache "$cdir" \
      >"$dir/cache-verify.out"
  then
    echo "cache drill FAILED: verify accepted a flipped payload byte" >&2
    exit 1
  fi
  grep -q 'payload checksum mismatch' "$dir/cache-verify.out" || {
    echo "cache drill FAILED: verify did not report the checksum" >&2; exit 1
  }
  local man_flip="$dir/manifest-flip.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 7 --threads 2 \
      --cache "$cdir" --manifest "$man_flip" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_flip" \
      --require-completed true \
      --require-counter cache.corrupt >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_cold" "$man_flip" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" cache verify --cache "$cdir" >/dev/null

  # Corrupt the entry (truncate to the header); verify must flag it, and
  # the next run must fall back to a clean recompute with zero drift.
  head -c 16 "$centry" > "$centry.cut" && mv "$centry.cut" "$centry"
  if env "${san_env[@]}" \
      "$dir/tools/stemroot" cache verify --cache "$cdir" >/dev/null
  then
    echo "cache drill FAILED: verify accepted a truncated entry" >&2; exit 1
  fi
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 7 --threads 2 \
      --cache "$cdir" --manifest "$man_recover" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_recover" \
      --require-completed true \
      --require-counter cache.corrupt >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_cold" "$man_recover" >/dev/null
  # The recompute re-stored a clean entry; evict everything and confirm.
  env "${san_env[@]}" \
    "$dir/tools/stemroot" cache verify --cache "$cdir" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" cache evict --cache "$cdir" --max-bytes 0 \
      >/dev/null

  echo "=== [$mode] trace-file drill (CLI SRTC files, DESIGN.md SS16) ==="
  # generate -> profile in place (same --in/--out path) -> info must
  # succeed. Then one byte flipped inside the chunk must make info fail
  # cleanly: exit 1 with an error message, no crash, no sanitizer report.
  local tdir="$dir/trace-file-drill"
  rm -rf "$tdir"; mkdir -p "$tdir"
  local tfile="$tdir/t.srtc"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" generate --suite casio --workload bert_infer \
      --scale 0.02 --out "$tfile" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" profile --in "$tfile" --out "$tfile" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" info --in "$tfile" >"$tdir/info.out"
  grep -q 'top kernels by time' "$tdir/info.out" || {
    echo "trace-file drill FAILED: info did not see a profiled trace" >&2
    exit 1; }
  local tsz toff tbyte trc=0
  tsz="$(wc -c < "$tfile")"
  toff=$((tsz / 2))
  tbyte="$(od -An -tu1 -j "$toff" -N1 "$tfile" | tr -d ' ')"
  printf "$(printf '\\%03o' $((tbyte ^ 255)))" | \
    dd of="$tfile" bs=1 seek="$toff" conv=notrunc 2>/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" info --in "$tfile" >/dev/null \
      2>"$tdir/info.err" || trc=$?
  if [ "$trc" -ne 1 ] || ! grep -q '^error: .*digest mismatch' \
      "$tdir/info.err" || grep -q 'Sanitizer\|runtime error' \
      "$tdir/info.err"; then
    echo "trace-file drill FAILED: flipped chunk byte not rejected" \
         "cleanly (exit $trc)" >&2
    cat "$tdir/info.err" >&2; exit 1
  fi

  echo "=== [$mode] out-of-core drill (chunked spill, DESIGN.md SS16) ==="
  # (a) Byte-identity: the same seed with and without chunked spill, at
  # different thread counts, must compare clean -- the spill is storage,
  # never semantics. The spilled run must actually have written chunks.
  local odir="$dir/ooc-drill"
  rm -rf "$odir"; mkdir -p "$odir"
  local man_inmem="$dir/manifest-inmem.json"
  local man_chunked="$dir/manifest-chunked.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 13 --threads 1 \
      --cache "$smoke_cache" --manifest "$man_inmem" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" run --suite casio --workload bert_infer \
      --method stem --scale 0.02 --reps 2 --seed 13 --threads 4 \
      --cache "$smoke_cache" --trace-chunk-invocations 256 \
      --trace-spill "$odir/spill-run" --manifest "$man_chunked" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_chunked" \
      --require-completed true \
      --require-spill true --require-counter cache.spill_write >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_inmem" "$man_chunked" >/dev/null

  # (b) Bounded memory: stream a tiled trace much larger than the chunk
  # budget through tight 512-invocation chunks. The logical `trace` peak
  # in the manifest is the streaming resident budget (about two chunks of
  # decoded invocations), so a 1 MB bound proves the 120k-invocation
  # stream never materialized in memory (it would be >10 MB if it had).
  local man_stream="$dir/manifest-stream.json"
  local stream_args=(stream --suite casio --workload bert_infer
                     --scale 0.02 --seed 13
                     --cache "$smoke_cache"
                     --trace-chunk-invocations 512
                     --trace-spill "$odir/spill"
                     --target-invocations 120000)
  env "${san_env[@]}" \
    "$dir/tools/stemroot" "${stream_args[@]}" --threads 2 \
      --manifest "$man_stream" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_stream" \
      --require-completed true \
      --require-spill true --require-counter eval.stream.invocations \
      --max-logical trace=1000000 >/dev/null

  # (c) Spill reuse: an identical rerun must verify every chunk digest
  # and reuse the spill file instead of rewriting it, with zero drift.
  local man_reuse="$dir/manifest-reuse.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" "${stream_args[@]}" --threads 2 \
      --manifest "$man_reuse" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_reuse" --require-spill true \
      --require-counter cache.spill_reuse >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_stream" "$man_reuse" >/dev/null

  # (c2) Thread invariance: kernels fold on their own lanes and the next
  # chunk is read alongside, so 1 and 4 threads must compare clean against
  # the 2-thread run.
  local threads man_threads
  for threads in 1 4; do
    man_threads="$dir/manifest-stream-t$threads.json"
    env "${san_env[@]}" \
      "$dir/tools/stemroot" "${stream_args[@]}" --threads "$threads" \
        --manifest "$man_threads" >/dev/null
    env "${san_env[@]}" \
      "$dir/tools/stemroot" compare "$man_stream" "$man_threads" >/dev/null
  done

  # (d) Corrupt a chunk mid-file (64 bytes of 0xff in the payload region
  # -- fraction columns are never NaN, so the chunk digest cannot still
  # match): the rerun must detect the mismatch, rebuild the spill, and
  # land on the same results. Rebuild, never crash, never bad data.
  local sfile ssz
  sfile="$(ls "$odir/spill"/*.srtc | head -n 1)"
  ssz="$(wc -c < "$sfile")"
  head -c 64 /dev/zero | tr '\0' '\377' | \
    dd of="$sfile" bs=1 count=64 seek="$((ssz / 2))" conv=notrunc \
      2>/dev/null
  local man_rebuild="$dir/manifest-rebuild.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" "${stream_args[@]}" --threads 2 \
      --manifest "$man_rebuild" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_rebuild" \
      --require-spill true \
      --require-counter cache.spill_rebuild >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_stream" "$man_rebuild" >/dev/null

  # (e) Truncate the spill (lops the trailer and part of the last chunk):
  # the reader must reject the file outright and the run must rebuild.
  head -c "$((ssz - 100))" "$sfile" > "$sfile.cut" && mv "$sfile.cut" "$sfile"
  local man_trunc="$dir/manifest-trunc.json"
  env "${san_env[@]}" \
    "$dir/tools/stemroot" "${stream_args[@]}" --threads 2 \
      --manifest "$man_trunc" >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" validate manifest "$man_trunc" --require-spill true \
      --require-counter cache.spill_rebuild >/dev/null
  env "${san_env[@]}" \
    "$dir/tools/stemroot" compare "$man_stream" "$man_trunc" >/dev/null
  echo "=== [$mode] OK ==="
}

for mode in "${MODES[@]}"; do run_mode "$mode"; done
echo "All checks passed: ${MODES[*]}"
