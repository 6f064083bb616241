#!/bin/sh
# Runs every workload of BENCHMARK.json once untraced (--trace 0) and once
# traced (--trace 1), printing every metric as "workload name value unit"
# and each run's JSON result line.  Each run's output is kept as
# <out>/<workload>.seed<N>.trace<T>.<stamp>.log for compare_runs.py, so
# repeated calls with one --out accumulate a set of runs.  Exits nonzero if
# any run fails or reports a wrong verdict or output.
#
#   benchmark/run_benchmark.sh --seed N [--seconds S] [--out DIR]
#
# --seconds defaults to BENCHMARK.json's run_seconds; --out to
# .bench_build/results.  --seconds 1 is the smoke run: each workload at
# between a fifteenth and a quarter of its default work, with every
# correctness check.
set -u
cd "$(dirname "$0")/.." || exit 2

seed=1
seconds=
out=.bench_build/results
while [ $# -gt 0 ]; do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) echo "usage: $0 --seed N [--seconds S] [--out DIR]" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
mkdir -p "$out"
stamp=$(date +%Y%m%d-%H%M%S)-$$

status=0
for w in $workloads; do
  for t in 0 1; do
    log="$out/$w.seed$seed.trace$t.$stamp.log"
    if ! python3 benchmark/run.py --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$t" > "$log"; then
      echo "$w (trace $t): FAILED, see $log" >&2
      status=1
    fi
    sed "s/^/$w /" "$log"
  done
done
exit $status
