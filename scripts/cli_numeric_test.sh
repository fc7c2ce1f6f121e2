#!/bin/bash
# Numeric option validation of `cfs sim`, from outside the process: every
# invocation below must be refused cleanly -- exit status 1 and a `cfs:`
# diagnostic on stderr -- never an abort, a wrapped value, or a run.
# All of them use s27 (52 faults), so even a build that wrongly accepts a
# huge --threads starts at most 52 threads.
#
# Usage: cli_numeric_test.sh /path/to/cfs
CFS=${1:?usage: cli_numeric_test.sh /path/to/cfs}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
status=0

# expect_refused <stderr substring> <cfs sim args...>
expect_refused() {
  local want=$1
  shift
  "$CFS" sim s27 "$@" > "$TMP/out" 2> "$TMP/err"
  local rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q "^cfs: .*$want" "$TMP/err"; then
    echo "cli_numeric_test: FAIL: cfs sim s27 $* -> exit $rc:" >&2
    cat "$TMP/err" >&2
    status=1
  else
    echo "ok: $* -> $(head -n 1 "$TMP/err")"
  fi
}

expect_refused "--rebalance must be off, auto, or a period N >= 1" \
  --rebalance=99999999999999999999999
expect_refused "--rebalance must be off, auto, or a period N >= 1" \
  --rebalance=-3
expect_refused "option --threads expects a number" --threads=-1
expect_refused "--threads must be 1..64" --threads=4294967297
expect_refused "--threads must be 1..64" --threads=65
expect_refused "--threads must be 1..64" --threads=0
expect_refused "option --seed expects a number" --seed=-1
expect_refused "option --sample-every expects a number" --sample-every=+2

[ "$status" -eq 0 ] && echo "cli_numeric_test: OK"
exit "$status"
