#!/bin/bash
# Shard invariance on s298: simulate the `cfs tgen` suite at threads
# {1,2,4} x rebalance {off,auto} with --stats-json and require, against the
# one-thread run without rebalancing, the same deterministic block, the same
# coverage and, sample by sample, the same deterministic timeline tuple
# (vec, hard, potential, dropped, live_faults).  With the optional counter
# checker and expectation (tools/check_counters.py,
# tools/expected_s298_counters.json) the one-thread documents must also
# match the merge-path counter pins, rebalancing on and off; that part needs
# telemetry compiled in (CFS_OBS=ON).
#
# Usage: shard_invariance_test.sh /path/to/cfs \
#          [/path/to/check_counters.py /path/to/expected_s298_counters.json]
CFS=${1:?usage: shard_invariance_test.sh cfs [check_counters.py expected.json]}
CHECK=$2
EXPECTED=$3
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "shard_invariance_test: FAIL: $*" >&2
  exit 1
}

"$CFS" tgen s298 --reset0 --out="$TMP/s298.tests" > /dev/null ||
  fail "cfs tgen failed"
for t in 1 2 4; do
  for r in off auto; do
    rflags="--rebalance=$r"
    if [ "$r" = auto ]; then
      rflags="$rflags --rebalance-threshold=1.05"
    fi
    "$CFS" sim s298 --tests="$TMP/s298.tests" --reset0 --threads=$t $rflags \
      --stats-json="$TMP/stats_t${t}_${r}.json" > /dev/null ||
      fail "cfs sim --threads=$t --rebalance=$r failed"
  done
done

python3 - "$TMP" <<'EOF' || fail "results differ across the grid"
import json
import sys

tmp = sys.argv[1]
docs = {(t, r): json.load(open(f"{tmp}/stats_t{t}_{r}.json"))
        for t in (1, 2, 4) for r in ("off", "auto")}
ref = docs[(1, "off")]
DET = ("vec", "hard", "potential", "dropped", "live_faults")
ref_tuples = [[s[k] for k in DET] for s in ref["timeline"]["samples"]]
assert ref_tuples, "reference run recorded no timeline samples"
for key, doc in docs.items():
    assert doc["deterministic"] == ref["deterministic"], \
        (key, doc["deterministic"], ref["deterministic"])
    assert doc["coverage"] == ref["coverage"], key
    assert doc["meta"]["threads"] == key[0], key
    tuples = [[s[k] for k in DET] for s in doc["timeline"]["samples"]]
    assert tuples == ref_tuples, (key, "timeline samples differ")
print("deterministic block invariant:", ref["deterministic"])
print(f"timeline deterministic section invariant: "
      f"{len(ref_tuples)} samples x {len(docs)} grid points")
EOF

if [ -n "$CHECK" ]; then
  # The element-level merge-path pins are single-threaded only; at one
  # shard the rebalancer is a no-op, so --rebalance=auto must leave every
  # pinned counter untouched.
  for r in off auto; do
    python3 "$CHECK" "$TMP/stats_t1_$r.json" "$EXPECTED" ||
      fail "rebalance=$r counters drifted from $EXPECTED"
  done
fi
echo "shard_invariance_test: OK"
