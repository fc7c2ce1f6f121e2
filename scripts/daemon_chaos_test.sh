#!/bin/bash
# Service-level chaos test for cfsd, from outside the process:
#
#   1. N concurrent `cfs connect` sessions across a --threads grid
#      against one daemon, all on the same cached model.
#   2. kill -9 the daemon while every session is mid-campaign (an injected
#      stall pins them there), restart it on the same state dir: recovery
#      re-admits every session, clients reconnect with the same command
#      line, and every final digest must equal the uninterrupted
#      single-process reference -- the crash-safe bit-identity invariant.
#   3. a session that cannot fit a tiny --mem-budget is refused with a
#      structured admission_refused error (client exit code 3) and the
#      daemon keeps serving.
#   4. graceful shutdown both ways: the shutdown op drains the daemon, and
#      SIGTERM produces a clean exit.
#
# The circuit is the *generated* canonical netlist (`cfs gen --out`), not a
# profile name: `cfs connect` re-serializes whatever it loads, and the
# generated file is a serialization fixpoint, so the reference `cfs sim`
# and every session simulate byte-identical fault universes (same fault
# ids => same digest).
#
# Usage: daemon_chaos_test.sh /path/to/cfs /path/to/cfsd
CFS=${1:?usage: daemon_chaos_test.sh /path/to/cfs /path/to/cfsd}
CFSD=${2:?usage: daemon_chaos_test.sh /path/to/cfs /path/to/cfsd}
TMP=$(mktemp -d)
DPID=""
trap '[ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null; rm -rf "$TMP"' EXIT

fail() {
  echo "daemon_chaos_test: FAIL: $*" >&2
  exit 1
}

digest_of() { awk '/^digest/{print $2}' "$1"; }

wait_for_socket() {
  local sock=$1 i
  for i in $(seq 100); do
    "$CFS" connect "$sock" --stats > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  return 1
}

SOCK=$TMP/cfsd.sock
STATE=$TMP/state
SUITE="--random=96 --seed=9"
# The threads grid: one session per point, one shared model.
GRID="1 2 3 4"

# --- reference: uninterrupted single-process campaign ----------------------
"$CFS" gen s298 --out="$TMP/c.bench" > /dev/null ||
  fail "cannot generate canonical netlist"
"$CFS" sim "$TMP/c.bench" $SUITE --retries=0 > "$TMP/ref.txt" ||
  fail "reference campaign failed"
REF=$(digest_of "$TMP/ref.txt")
[ -n "$REF" ] || fail "no digest in reference output"

# --- 1+2. concurrent sessions, kill -9 mid-campaign, recover --------------
# Every session stalls 5 s on shard 0 at vector 2 (one firing each), so the
# kill reliably lands with all campaigns admitted, checkpointed, and
# unfinished.
"$CFSD" --state-dir="$STATE" --socket="$SOCK" --checkpoint-every=2 \
  --inject=stall:0:2:5000:4 > "$TMP/daemon1.log" 2>&1 &
DPID=$!
wait_for_socket "$SOCK" || { cat "$TMP/daemon1.log" >&2; fail "daemon 1 never listened"; }

CPIDS=()
for t in $GRID; do
  "$CFS" connect "$SOCK" --session="grid-t${t}" \
    --circuit="$TMP/c.bench" $SUITE --threads="$t" --quiet \
    > "$TMP/open_t${t}.txt" 2>&1 &
  CPIDS+=($!)
done
sleep 2  # all four are open, stalled mid-campaign, state on disk
for t in $GRID; do
  [ -f "$STATE/grid-t${t}/manifest.json" ] || {
    cat "$TMP/open_t${t}.txt" "$TMP/daemon1.log" >&2
    fail "session grid-t${t} not persisted before the kill"
  }
  # The stall must be holding every campaign open: a finished session here
  # would make the recovery leg vacuous.
  [ ! -f "$STATE/grid-t${t}/result.json" ] ||
    fail "session grid-t${t} finished before the kill; raise the stall"
done

kill -9 "$DPID" 2> /dev/null || fail "daemon 1 already dead before kill -9"
wait "$DPID" 2> /dev/null
DPID=""
for pid in "${CPIDS[@]}"; do wait "$pid" 2> /dev/null; done  # clients fail; fine

# Restart on the same state dir (no injector): recovery re-admits every
# unfinished session and finishes it without any client involvement.
"$CFSD" --state-dir="$STATE" --socket="$SOCK" --checkpoint-every=2 \
  > "$TMP/daemon2.log" 2>&1 &
DPID=$!
wait_for_socket "$SOCK" || { cat "$TMP/daemon2.log" >&2; fail "daemon 2 never listened"; }

# Reconnect with the *same* command line: the spec fingerprint must match
# the persisted manifest, and every digest must equal the reference.
for t in $GRID; do
  "$CFS" connect "$SOCK" --session="grid-t${t}" \
    --circuit="$TMP/c.bench" $SUITE --threads="$t" --quiet \
    > "$TMP/done_t${t}.txt" 2>&1 ||
    { cat "$TMP/done_t${t}.txt" >&2; fail "reconnect t=$t failed"; }
  D=$(digest_of "$TMP/done_t${t}.txt")
  [ "$D" = "$REF" ] || {
    cat "$TMP/done_t${t}.txt" >&2
    fail "kill -9 + recovery digest $D != uninterrupted $REF (t=$t)"
  }
done

# The daemon's own books: four sessions recovered, four completed, none
# failed.
"$CFS" connect "$SOCK" --stats > "$TMP/stats.txt" ||
  fail "stats after recovery failed"
grep -q '"resumed":4' "$TMP/stats.txt" ||
  { cat "$TMP/stats.txt" >&2; fail "expected 4 recovered sessions"; }
grep -q '"completed":4' "$TMP/stats.txt" ||
  { cat "$TMP/stats.txt" >&2; fail "expected 4 completed sessions"; }
grep -q '"failed":0' "$TMP/stats.txt" ||
  { cat "$TMP/stats.txt" >&2; fail "expected no failed sessions"; }

# --- 4a. SIGTERM drains daemon 2 cleanly ----------------------------------
kill -TERM "$DPID"
wait "$DPID"
RC=$?
DPID=""
[ "$RC" -eq 0 ] || { cat "$TMP/daemon2.log" >&2; fail "SIGTERM exit code $RC"; }
grep -q 'cfsd stopped' "$TMP/daemon2.log" ||
  { cat "$TMP/daemon2.log" >&2; fail "daemon 2 did not report a clean stop"; }

# --- 3. admission refusal is structured, the daemon survives --------------
"$CFSD" --state-dir="$TMP/state2" --socket="$TMP/sock2" --mem-budget=1000 \
  > "$TMP/daemon3.log" 2>&1 &
DPID=$!
wait_for_socket "$TMP/sock2" ||
  { cat "$TMP/daemon3.log" >&2; fail "daemon 3 never listened"; }

"$CFS" connect "$TMP/sock2" --session=toobig --circuit="$TMP/c.bench" \
  $SUITE --elements=4000 > "$TMP/refused.txt" 2>&1
RC=$?
[ "$RC" -eq 3 ] || {
  cat "$TMP/refused.txt" >&2
  fail "over-budget open exited $RC, want 3 (admission_refused)"
}
grep -q 'admission_refused' "$TMP/refused.txt" ||
  { cat "$TMP/refused.txt" >&2; fail "refusal did not name admission_refused"; }

# The refusal never aborts the daemon: a session that fits still completes.
"$CFS" connect "$TMP/sock2" --session=fits --circuit="$TMP/c.bench" \
  $SUITE --elements=900 --quiet > "$TMP/fits.txt" 2>&1 ||
  { cat "$TMP/fits.txt" "$TMP/daemon3.log" >&2; fail "in-budget session failed"; }
[ "$(digest_of "$TMP/fits.txt")" = "$REF" ] ||
  fail "in-budget session digest differs from reference"

# --- 4b. the shutdown op drains daemon 3 ----------------------------------
"$CFS" connect "$TMP/sock2" --shutdown > /dev/null ||
  fail "shutdown op failed"
wait "$DPID"
RC=$?
DPID=""
[ "$RC" -eq 0 ] || { cat "$TMP/daemon3.log" >&2; fail "shutdown exit code $RC"; }

echo "daemon_chaos_test: all green (digest $REF, 4 sessions recovered)"
