#!/bin/sh
# Resident-service drills (DESIGN.md sections 13-14) against a real
# `stemroot serve` on an AF_UNIX socket in the current directory.
#
#   serve.sh STEMROOT sessions   two concurrent sessions: a full timeline
#                                feed replays the batch run (compare
#                                clean) and a shuffled feed early-stops;
#                                the journal and stats are validated
#   serve.sh STEMROOT cold       two concurrent cold opens of one config
#                                store one verified cache entry and both
#                                replay the batch run
#
# The server is killed on every exit path, so a failed check never leaves
# it running.
set -eu
sr="$1"
server=
trap '[ -z "$server" ] || kill "$server" 2>/dev/null || true' EXIT
trap 'exit 1' HUP INT TERM

fail() { echo "serve drill FAILED: $*" >&2; exit 1; }
OPEN='"suite":"casio","workload":"bert_infer","scale":0.02,"seed":42,"reps":2'

# start_server ARGS...: serve on ./sock and wait for the socket.
start_server() {
  "$sr" serve --socket sock "$@" >serve.log 2>&1 &
  server=$!
  for _ in $(seq 1 100); do [ -S sock ] && return 0; sleep 0.1; done
  cat serve.log >&2; fail "server socket never appeared"
}

# stop_server: the shutdown verb, then the server must exit 0.
stop_server() {
  echo '{"op":"shutdown"}' | "$sr" session --socket sock --fail-on-error true \
    --script - >/dev/null
  wait "$server" || { cat serve.log >&2; fail "server exited nonzero"; }
  server=
}

# session SCRIPT: run one client script against ./sock in the background.
session() {
  "$sr" session --socket sock --fail-on-error true --script "$1" \
    >"$1.out" &
}

# The batch run every fully fed session must replay byte for byte.
"$sr" run --suite casio --workload bert_infer --method stem --scale 0.02 \
  --reps 2 --seed 42 --threads 1 --cache cache --manifest batch.json \
  >/dev/null

case "$2" in
sessions)
  start_server --cache cache --journal journal.jsonl
  # Session ids are deterministic over one setup connection: 1 then 2.
  cat > setup.jsonl <<SETUP
{"op":"open",$OPEN,"order":"timeline"}
{"op":"open","suite":"casio","workload":"bert_infer","scale":0.2,"seed":99,"reps":2,"epsilon":0.05,"order":"shuffled"}
SETUP
  cat > full.jsonl <<FULL
{"op":"feed","id":1,"count":1000000000}
{"op":"eval","id":1}
{"op":"close","id":1,"manifest":"session-full.json"}
FULL
  cat > early.jsonl <<EARLY
{"op":"feed","id":2,"count":1024}
{"op":"feed","id":2,"count":1024}
{"op":"feed","id":2,"count":1024}
{"op":"feed","id":2,"count":1024}
{"op":"query","id":2}
{"op":"close","id":2,"manifest":"session-early.json"}
EARLY
  "$sr" session --socket sock --fail-on-error true --script setup.jsonl \
    >/dev/null
  session full.jsonl; full=$!
  session early.jsonl; early=$!
  wait "$full" || { cat full.jsonl.out >&2; fail "full-feed session errored"; }
  wait "$early" || { cat early.jsonl.out >&2; fail "early-stop session errored"; }

  # Live introspection while the server is up: per-verb latency
  # quantiles and totals, process memory and the logical memory peaks.
  "$sr" stats --socket sock --json true >stats.json
  grep -q '"verbs"' stats.json || fail "stats lacks per-verb latencies"
  for key in p99_us total_us rss_bytes hwm_bytes trace service.session; do
    grep -q "\"$key\"" stats.json || fail "stats lacks \"$key\""
  done
  "$sr" stats --socket sock >/dev/null
  stop_server

  # The journal.
  "$sr" validate journal journal.jsonl --require-event session.open >/dev/null
  "$sr" journal tail journal.jsonl >tail.txt 2>/dev/null
  grep -q session.open tail.txt || fail "journal tail lost session.open"
  "$sr" journal tail journal.jsonl --verb session.open >opens.txt 2>/dev/null
  if grep -qv session.open opens.txt; then
    fail "--verb filter leaked other events"
  fi

  # Session 2 converged on part of its trace; session 1 fed everything and
  # replays the batch run despite the different command and transport.
  "$sr" validate manifest session-early.json --require-completed true \
    --require-counter service.early_stops,service.feed_invocations >/dev/null
  "$sr" validate manifest session-full.json --require-completed true \
    --require-stage evaluate >/dev/null
  "$sr" compare batch.json session-full.json >/dev/null

  # The journal gate: the clean journal passes, a forged error trips it.
  "$sr" regress --journal journal.jsonl >/dev/null
  cp journal.jsonl journal-bad.jsonl
  echo '{"ts_us":9999999999,"tid":1,"seq":999999,"sev":"error","event":"forged.crash"}' \
    >>journal-bad.jsonl
  if "$sr" regress --journal journal-bad.jsonl >/dev/null 2>&1; then
    fail "journal error event not gated"
  fi
  ;;
cold)
  # Both clients may generate the trace and store the same key at once.
  start_server --cache cold-cache
  for c in a b; do
    echo "{\"op\":\"open\",$OPEN,\"order\":\"timeline\"}" >open-$c.jsonl
  done
  session open-a.jsonl; a=$!
  session open-b.jsonl; b=$!
  wait "$a" && wait "$b" || fail "concurrent cold open errored"
  # The sessions are ids 1 and 2, whichever open finished first.
  for id in 1 2; do
    cat > run-$id.jsonl <<RUN
{"op":"feed","id":$id,"count":1000000000}
{"op":"eval","id":$id}
{"op":"close","id":$id,"manifest":"session-$id.json"}
RUN
  done
  session run-1.jsonl; a=$!
  session run-2.jsonl; b=$!
  wait "$a" && wait "$b" || fail "concurrent feed/eval/close errored"
  stop_server
  "$sr" validate manifest session-1.json session-2.json \
    --require-completed true --require-stage evaluate >/dev/null
  "$sr" compare session-1.json session-2.json >/dev/null
  "$sr" compare batch.json session-1.json >/dev/null
  "$sr" compare batch.json session-2.json >/dev/null
  "$sr" cache verify --cache cold-cache >/dev/null
  if ls cold-cache | grep -q '\.tmp\.'; then fail "temp files left in the cache"; fi
  ;;
*) echo "usage: serve.sh STEMROOT sessions|cold" >&2; exit 2 ;;
esac
