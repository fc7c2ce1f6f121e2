#!/bin/bash
# Resilience integration test for the campaign CLI (`cfs sim` with campaign
# flags).  Exercises the three robustness pillars end to end, from outside
# the process:
#
#   1. kill -9 mid-campaign, resume from the last checkpoint: the resumed
#      run's digest (coverage + detection order) must equal an
#      uninterrupted run's.  The killed campaign runs with --rebalance=3
#      against checkpoints every 5 vectors, so kills land between a
#      dynamic repartition and the next checkpoint -- the checkpoint is
#      partition-agnostic and the resumed digest must not care.
#   2. forced shard failure (--inject): contained, retried exactly once,
#      result unchanged.
#   3. stalled shard (--inject=stall) under the deadline watchdog: slice
#      requeued onto a rebuilt engine, result unchanged.
#   4. element budget far below the natural peak: multi-pass degradation,
#      result unchanged.
#
# Phase 1 also streams campaign telemetry (--timeline): because the stream
# is flushed only at checkpoint boundaries, the kill -9 must leave a
# well-formed JSONL file, and the resumed campaign (which trims samples
# past its checkpoint) must append a contiguous, duplicate-free
# continuation covering every vector exactly once.
#
# Usage: kill_resume_test.sh /path/to/cfs
CFS=${1:?usage: kill_resume_test.sh /path/to/cfs}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "kill_resume_test: FAIL: $*" >&2
  exit 1
}

digest_of() { awk '/^digest/{print $2}' "$1"; }

# Common campaign: two-shard csim-MV over a fixed random suite.
ARGS=(sim s298 --random=96 --seed=9 --threads=2)

# --- reference: uninterrupted campaign ------------------------------------
"$CFS" "${ARGS[@]}" --retries=0 > "$TMP/full.txt" ||
  fail "reference campaign failed"
REF=$(digest_of "$TMP/full.txt")
[ -n "$REF" ] || fail "no digest in reference output"

# An uninterrupted campaign with dynamic rebalancing: repartitioning only
# moves faults between shards, so the digest must match the static run's.
"$CFS" "${ARGS[@]}" --retries=0 --rebalance=3 > "$TMP/rebal.txt" ||
  fail "rebalanced campaign failed"
[ "$(digest_of "$TMP/rebal.txt")" = "$REF" ] ||
  fail "rebalanced digest differs from static run"
grep -q 'rebalances=' "$TMP/rebal.txt" || {
  cat "$TMP/rebal.txt" >&2
  fail "rebalanced campaign reported no rebal line"
}

# --- 1. kill -9 mid-run, then resume --------------------------------------
# --sleep-ms paces the campaign (~25ms/vector) so the kill reliably lands
# mid-run; checkpoints land every 5 vectors, repartitions every 3, so the
# kill falls between a rebalance and the next checkpoint.
"$CFS" "${ARGS[@]}" --checkpoint="$TMP/ck.bin" --checkpoint-every=5 \
  --rebalance=3 \
  --timeline="$TMP/tl.jsonl" --sleep-ms=25 > "$TMP/killed.txt" 2>&1 &
PID=$!
sleep 1.2
kill -9 "$PID" 2> /dev/null || {
  cat "$TMP/killed.txt" >&2
  fail "campaign finished before the kill; raise --sleep-ms"
}
wait "$PID" 2> /dev/null
[ -f "$TMP/ck.bin" ] || fail "no checkpoint on disk after the kill"

# The kill landed between flushes: the stream on disk must still be pure
# well-formed JSONL (whole lines only, nothing torn).
[ -s "$TMP/tl.jsonl" ] || fail "no timeline stream on disk after the kill"
python3 - "$TMP/tl.jsonl" <<'EOF' || fail "killed timeline stream is not well-formed JSONL"
import json, sys
for line in open(sys.argv[1]):
    json.loads(line)
EOF

# Resume under a *different* policy (auto instead of every-3): checkpoints
# carry no partition state, so the resumed leg may rebalance on its own
# schedule and the digest must still match.
"$CFS" "${ARGS[@]}" --resume="$TMP/ck.bin" --timeline="$TMP/tl.jsonl" \
  --rebalance=auto --rebalance-threshold=1.05 \
  > "$TMP/resumed.txt" || fail "resume failed"
RES=$(digest_of "$TMP/resumed.txt")
[ "$RES" = "$REF" ] || {
  cat "$TMP/resumed.txt" >&2
  fail "kill+resume digest $RES != uninterrupted $REF"
}

# Killed stream + resumed continuation: every vector sampled exactly once,
# in order, with no gap and no overlap at the checkpoint seam.
python3 - "$TMP/tl.jsonl" <<'EOF' || fail "kill+resume timeline stream is not a contiguous sample series"
import json, sys
vecs = []
for line in open(sys.argv[1]):
    doc = json.loads(line)
    if "vec" in doc:
        vecs.append(doc["vec"])
assert vecs == list(range(96)), f"expected vec 0..95, got {len(vecs)} samples"
EOF

# --- 2. injected shard exception is contained -----------------------------
"$CFS" "${ARGS[@]}" --retries=3 --inject=throw:1:7 > "$TMP/inject.txt" ||
  fail "injected-throw campaign failed"
[ "$(digest_of "$TMP/inject.txt")" = "$REF" ] ||
  fail "injected-throw digest differs from clean run"
grep -q 'retries=1 requeues=0' "$TMP/inject.txt" || {
  cat "$TMP/inject.txt" >&2
  fail "expected exactly one shard retry and no requeue"
}

# --- 3. stalled shard is requeued by the watchdog -------------------------
"$CFS" "${ARGS[@]}" --retries=3 --deadline-ms=150 \
  --inject=stall:0:4:2000 > "$TMP/stall.txt" ||
  fail "stalled-shard campaign failed"
[ "$(digest_of "$TMP/stall.txt")" = "$REF" ] ||
  fail "stalled-shard digest differs from clean run"
grep -q 'requeues=1' "$TMP/stall.txt" || {
  cat "$TMP/stall.txt" >&2
  fail "expected exactly one hung-shard requeue"
}

# --- 4. element budget forces multi-pass, same result ---------------------
"$CFS" "${ARGS[@]}" --max-elements=900 > "$TMP/budget.txt" ||
  fail "budgeted campaign failed"
[ "$(digest_of "$TMP/budget.txt")" = "$REF" ] ||
  fail "budgeted digest differs from unlimited run"
PASSES=$(awk '/^passes/{gsub(",", "", $2); print $2}' "$TMP/budget.txt")
[ "${PASSES:-1}" -gt 1 ] || {
  cat "$TMP/budget.txt" >&2
  fail "budget 900 did not force a second pass"
}

echo "kill_resume_test: all green (digest $REF)"
