#!/bin/bash
# Deterministic merge-path counter pin on the fixed s298 test set, the same
# two commands CI runs: generate the suite with `cfs tgen`, simulate it
# single-threaded with --stats-json, and compare the element-level work
# counters, the deterministic block and the coverage against the checked-in
# expectation (tools/check_counters.py).  Any drift means the merge path
# changed behaviour.  The same stats document is also validated against the
# schema pin (tools/check_stats_schema.py, found next to check_counters.py),
# so a change of the stats-JSON shape fails here too.  Requires a build with
# telemetry compiled in (CFS_OBS=ON); with it compiled out every counter
# reads zero.
#
# Usage: counter_pin_test.sh /path/to/cfs /path/to/check_counters.py \
#          /path/to/expected_s298_counters.json
CFS=${1:?usage: counter_pin_test.sh cfs check_counters.py expected.json}
CHECK=${2:?usage: counter_pin_test.sh cfs check_counters.py expected.json}
EXPECTED=${3:?usage: counter_pin_test.sh cfs check_counters.py expected.json}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "counter_pin_test: FAIL: $*" >&2
  exit 1
}

"$CFS" tgen s298 --reset0 --out="$TMP/s298.tests" > /dev/null ||
  fail "cfs tgen failed"
"$CFS" sim s298 --tests="$TMP/s298.tests" --reset0 \
  --stats-json="$TMP/s298_stats.json" > /dev/null ||
  fail "cfs sim failed"
python3 "$(dirname "$CHECK")/check_stats_schema.py" "$TMP/s298_stats.json" ||
  fail "stats JSON does not match the schema pin"
python3 "$CHECK" "$TMP/s298_stats.json" "$EXPECTED" ||
  fail "counters drifted from $EXPECTED"
echo "counter_pin_test: OK"
