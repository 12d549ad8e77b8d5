#!/usr/bin/env bash
# Runs every workload twice with the same seed and checks that the two
# runs print identical deterministic counters (the "counters" line):
#   bash perfbench/determinism.sh [seed]
# Run from the repository root.
set -euo pipefail
seed=${1:-1}
status=0
for w in flow attack serve; do
  a=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 1 --trace 0 | grep '^counters')
  b=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 1 --trace 0 | grep '^counters')
  if [ "$a" = "$b" ]; then
    echo "$w: counters repeat ($(($(wc -w <<<"$a") - 1)) fields)"
  else
    echo "$w: counters differ between two runs with seed $seed"
    diff <(tr ' ' '\n' <<<"$a") <(tr ' ' '\n' <<<"$b") || true
    status=1
  fi
done
exit $status
