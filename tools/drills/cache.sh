#!/bin/sh
# Profile-cache drill (DESIGN.md section 10), in the current directory:
# a cold run stores, a warm run at another thread count hits and
# compares clean, and a flipped payload byte or a truncated entry is
# reported by `cache verify`, counted as cache.corrupt by the next run,
# recomputed with zero drift and re-stored clean.
#
#   cache.sh STEMROOT
set -eu
sr="$1"
fail() { echo "cache drill FAILED: $*" >&2; exit 1; }

# run THREADS MANIFEST: one seeded run against ./cache.
run() {
  "$sr" run --suite casio --workload bert_infer --method stem --scale 0.02 \
    --reps 2 --seed 7 --threads "$1" --cache cache --manifest "$2" >/dev/null
}

run 2 cold.json
"$sr" validate manifest cold.json --require-completed true \
  --require-counter cache.miss,cache.store >/dev/null
"$sr" cache stats --cache cache >/dev/null
"$sr" cache verify --cache cache >/dev/null

# Warm: generate+profile hit the cache and spend no more stage time than
# the cold run, with every deterministic manifest field unchanged.
run 4 warm.json
"$sr" validate manifest warm.json --require-completed true \
  --require-counter cache.hit \
  --stage-leq generate=cold.json,profile=cold.json >/dev/null
"$sr" compare cold.json warm.json >/dev/null

# One byte flipped mid-payload, length kept: only the payload checksum
# can catch it.
entry="$(ls cache/*.srce | head -n 1)"
size="$(wc -c <"$entry")"
mid=$((size / 2))
byte="$(od -An -tu1 -j "$mid" -N1 "$entry" | tr -d ' ')"
printf "$(printf '\\%03o' $((byte ^ 255)))" |
  dd of="$entry" bs=1 seek="$mid" count=1 conv=notrunc 2>/dev/null
[ "$(wc -c <"$entry")" -eq "$size" ] || fail "byte flip changed the length"
if "$sr" cache verify --cache cache >verify.out 2>&1; then
  fail "verify accepted a flipped payload byte"
fi
grep -q 'payload checksum mismatch' verify.out ||
  fail "verify did not report the checksum"
run 2 flip.json
"$sr" validate manifest flip.json --require-completed true \
  --require-counter cache.corrupt >/dev/null
"$sr" compare cold.json flip.json >/dev/null
"$sr" cache verify --cache cache >/dev/null

# Truncated to the header: verify flags it, the next run recomputes.
head -c 16 "$entry" >"$entry.cut" && mv "$entry.cut" "$entry"
if "$sr" cache verify --cache cache >/dev/null 2>&1; then
  fail "verify accepted a truncated entry"
fi
run 2 recover.json
"$sr" validate manifest recover.json --require-completed true \
  --require-counter cache.corrupt >/dev/null
"$sr" compare cold.json recover.json >/dev/null
"$sr" cache verify --cache cache >/dev/null
"$sr" cache evict --cache cache --max-bytes 0 >/dev/null
"$sr" cache stats --cache cache | grep -q '^cache: 0 entries' ||
  fail "evict --max-bytes 0 left entries behind"
