#!/bin/bash
# Alternating perfbench pairs between two checkouts, for a BENCH_<sha>.json.
#
#     tools/bench_pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT [FIRST_SEED [PAIRS]]
#
# For pair i (seed FIRST_SEED + i, default 30, PAIRS default 10) it runs
# every workload once in each checkout, the parent first on even i and the
# change first on odd i, then one traced run of every workload at seed 77
# in each.  The workloads are those the parent's BENCHMARK.json lists, so
# a workload the change adds is paired from the next change on.  Each run
# writes its result to .perfbench_out/results of its own checkout, and
# tools/bench_trajectory.py reads every result file there: so the script
# exits 2 before any run when either directory already holds a result,
# naming it.  A failed run is reported as FAIL and makes the script exit 1
# once every run is done, since its pair is then missing from the results.
# Before the first pair it byte-compiles src and perfbench in both
# checkouts, so both sides run from .pyc files: perfbench's peak_rss_mib
# counts the bytecode compiler, and a side without .pyc files peaked about
# 11 % higher on the same code.
set -u
parent=$1 change=$2 first=${3:-30} pairs=${4:-10}
for d in "$parent" "$change"; do
  if compgen -G "$d/.perfbench_out/results/*.json" > /dev/null; then
    echo "stale results in $d/.perfbench_out/results: empty it first" >&2
    exit 2
  fi
done
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$parent/BENCHMARK.json") || exit 1
for d in "$parent" "$change"; do
  (cd "$d" && python3 -m compileall -q src perfbench) || exit 1
done
failed=0
for ((i = 0; i < pairs; i++)); do
  seed=$((first + i))
  for w in $workloads; do
    if ((i % 2 == 0)); then order="$parent $change"; else order="$change $parent"; fi
    for d in $order; do
      (cd "$d" && python3 perfbench/run.py --workload "$w" --seed "$seed" \
        --seconds 10 --trace 0 > /dev/null) || { echo "FAIL $d $w $seed"; failed=1; }
    done
    echo "$(date +%T) pair $i $w done"
  done
done
for w in $workloads; do
  for d in "$parent" "$change"; do
    (cd "$d" && python3 perfbench/run.py --workload "$w" --seed 77 \
      --seconds 10 --trace 1 > /dev/null) || { echo "FAIL $d $w traced"; failed=1; }
  done
done
exit $failed
