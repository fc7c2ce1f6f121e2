#!/bin/bash
# Campaign digest pin on s5378: the digest (coverage plus detection order)
# of a fixed random campaign must be 51b893dd8b573ae6 at one, two and four
# threads, with the dynamic rebalancer off and on.  This file is the one
# definition of the digest grid; ctest and CI both run it.
#
# Usage: digest_pin_test.sh /path/to/cfs
CFS=${1:?usage: digest_pin_test.sh /path/to/cfs}
WANT=51b893dd8b573ae6

for t in 1 2 4; do
  for r in off auto; do
    rflags="--rebalance=$r"
    if [ "$r" = auto ]; then
      rflags="$rflags --rebalance-threshold=1.05"
    fi
    d=$("$CFS" sim s5378 --random=96 --seed=9 \
          --reset0 --threads=$t --retries=0 $rflags |
        awk '/^digest/{print $2}')
    echo "threads=$t rebalance=$r digest=$d"
    if [ "$d" != "$WANT" ]; then
      echo "digest_pin_test: FAIL: expected $WANT" >&2
      exit 1
    fi
  done
done
echo "digest_pin_test: OK"
