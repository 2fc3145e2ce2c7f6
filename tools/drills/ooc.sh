#!/bin/sh
# Out-of-core drill (DESIGN.md section 16), in the current directory: a
# chunked, spilled run compares clean against the in-memory run; a
# `stemroot stream` of the pipeline's own chunks, spilled or in memory,
# streams every generated invocation once; a bounded-memory stream keeps
# its logical trace peak under 1 MB, reuses its verified spill, compares
# clean at 1, 2 and 4 threads, and rebuilds a corrupted or truncated
# spill instead of trusting it.
#
#   ooc.sh STEMROOT
set -eu
sr="$1"

# Spill is storage, never semantics: same seed, other thread count.
run="run --suite casio --workload bert_infer --method stem --scale 0.02
     --reps 2 --seed 13 --cache cache"
"$sr" $run --threads 1 --manifest inmem.json >/dev/null
"$sr" $run --threads 4 --trace-chunk-invocations 256 --trace-spill spill-run \
  --manifest chunked.json >/dev/null
"$sr" validate manifest chunked.json --require-completed true \
  --require-spill true --require-counter cache.spill_write >/dev/null
"$sr" compare inmem.json chunked.json >/dev/null

# Without --target-invocations, stream reads the pipeline's own chunks:
# from the spill file, or from the trace in memory. Both stream each
# generated invocation once and agree with each other.
counter() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" "$2"; }
whole="stream --suite casio --workload bert_infer --scale 0.02 --seed 13
       --cache cache --trace-chunk-invocations 512 --threads 2"
"$sr" $whole --trace-spill spill-whole --manifest whole.json >/dev/null
"$sr" $whole --manifest whole-mem.json >/dev/null
for m in whole whole-mem; do
  n="$(counter workloads.invocations_generated $m.json)"
  test "$n" -gt 0
  test "$(counter eval.stream.invocations $m.json)" = "$n"
done
"$sr" validate manifest whole.json --require-spill true >/dev/null
"$sr" compare whole.json whole-mem.json >/dev/null

# A 120k-invocation stream through 512-invocation chunks: the logical
# trace peak is about two decoded chunks, so 1 MB proves the stream never
# materialized (it would take >10 MB).
stream="stream --suite casio --workload bert_infer --scale 0.02 --seed 13
        --cache cache --trace-chunk-invocations 512 --trace-spill spill
        --target-invocations 120000"
"$sr" $stream --threads 2 --manifest stream.json >/dev/null
"$sr" validate manifest stream.json --require-completed true \
  --require-spill true --require-counter eval.stream.invocations \
  --max-logical trace=1000000 >/dev/null

# An identical rerun verifies every chunk digest and reuses the spill.
"$sr" $stream --threads 2 --manifest reuse.json >/dev/null
"$sr" validate manifest reuse.json --require-spill true \
  --require-counter cache.spill_reuse >/dev/null
"$sr" compare stream.json reuse.json >/dev/null
for t in 1 4; do
  "$sr" $stream --threads $t --manifest stream-t$t.json >/dev/null
  "$sr" compare stream.json stream-t$t.json >/dev/null
done

# 64 bytes of 0xff mid-file (fraction columns are never NaN, so the chunk
# digest cannot still match), then a truncation that lops the trailer:
# each rerun rebuilds the spill and lands on the same results.
file="$(ls spill/*.srtc | head -n 1)"
size="$(wc -c <"$file")"
head -c 64 /dev/zero | tr '\0' '\377' |
  dd of="$file" bs=1 count=64 seek=$((size / 2)) conv=notrunc 2>/dev/null
"$sr" $stream --threads 2 --manifest rebuild.json >/dev/null
head -c $((size - 100)) "$file" >"$file.cut" && mv "$file.cut" "$file"
"$sr" $stream --threads 2 --manifest trunc.json >/dev/null
for m in rebuild trunc; do
  "$sr" validate manifest $m.json --require-spill true \
    --require-counter cache.spill_rebuild >/dev/null
  "$sr" compare stream.json $m.json >/dev/null
done
