#!/usr/bin/env bash
# Runs workloads once per seed and writes one JSON line per run to OUT, in
# the form sdcperf -compare reads. Run it from the repository root:
#
#   bash cmd/sdcperf/collect.sh OUT FIRST_SEED LAST_SEED [WORKLOAD...]
#
# With no workloads named it runs all five. Two sets collected this way
# compare with: bash cmd/sdcperf/run.sh -compare a.jsonl b.jsonl
set -euo pipefail

if [[ $# -lt 3 ]]; then
	sed -n '2,8p' "$0" >&2
	exit 2
fi
out=$1 first=$2 last=$3
shift 3
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(paper-report fleet-sweep serve-campaigns cluster-cold cache-warm)
fi
here=$(dirname "$0")
: >"$out"
for seed in $(seq "$first" "$last"); do
	for w in "${workloads[@]}"; do
		line=$(bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%s,"result":%s}\n' "$w" "$seed" "$line" >>"$out"
	done
done
