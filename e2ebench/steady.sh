#!/usr/bin/env bash
# Steadiness self-check: runs each workload with N different seeds, twice
# over (two sets, seeds 1..N and N+1..2N), then compares the two sets
# against the bounds in BENCHMARK.json, printing each end-to-end
# metric's medians, quartiles, spreads and median shift.
#
#   bash e2ebench/steady.sh [N] [workload ...]
#
# Run it from the repository root; results go to .bench_build/steady/.
set -euo pipefail

n=${1:-10}
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(paper-steady fanout-egress late-storm router-durable)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
dir=.bench_build/steady
mkdir -p "$dir"
for set in 1 2; do
	: >"$dir/set$set.jsonl"
	for w in "${workloads[@]}"; do
		for i in $(seq 1 "$n"); do
			seed=$(((set - 1) * n + i))
			line=$(bash e2ebench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
			printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$line" >>"$dir/set$set.jsonl"
			echo "set $set $w seed $seed: $line" >&2
		done
	done
done
.bench_build/bin/e2ebench -steady "$dir/set1.jsonl" "$dir/set2.jsonl"
