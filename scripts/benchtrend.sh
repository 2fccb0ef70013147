#!/bin/sh
# benchtrend.sh — print the committed benchmark trajectory: for every
# workload, each end-to-end metric of BENCHMARK.json across the
# BENCH_<pr>.json reports at the repo root, oldest first, plus the two
# digests that must not move for a behaviour-preserving PR. It only
# reads the committed reports; it builds and runs nothing. Latencies
# belong to the machine each report was taken on (its env block), so
# read a row as a trend, not as a comparison — `sh benchmark/run.sh
# --compare a.json b.json` is the bounded comparison. After the table it
# lists the perf claims' pairs files (perf/*.json, written by
# scripts/pairs.sh): per file its command and, per metric, the median
# change/parent ratio, the pairs won and the parent's IQR.
#
# Usage: scripts/benchtrend.sh [root]   (default root: repo root)
set -eu
cd "${1:-$(dirname "$0")/..}"
command -v jq >/dev/null || { echo "benchtrend: needs jq" >&2; exit 1; }
files=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n) || true
[ -n "$files" ] || { echo "benchtrend: no BENCH_*.json at $(pwd)" >&2; exit 1; }

for wl in $(jq -r '.workloads[].name' BENCHMARK.json); do
	echo "== $wl"
	printf '%-20s' metric
	for f in $files; do printf ' %14s' "${f%.json}"; done
	echo
	for m in $(jq -r '.end_to_end[].name' BENCHMARK.json); do
		printf '%-20s' "$m"
		for f in $files; do
			printf ' %14s' "$(jq -r --arg w "$wl" --arg m "$m" \
				'.workloads[$w].end_to_end[$m] // "-" | if type == "number" then (. * 10000 | round / 10000) else . end' "$f")"
		done
		echo
	done
	for d in inputs_sha256 answers_sha256; do
		printf '%-20s' "$d"
		for f in $files; do
			printf ' %14s' "$(jq -r --arg w "$wl" --arg d "$d" '.workloads[$w].info[$d] // "-" | .[0:12]' "$f")"
		done
		echo
	done
done

for f in $(ls perf/*.json 2>/dev/null | sort -V); do
	echo "== $f"
	jq -r '"\(.parent[0:12]) -> \(.change[0:12]) identity same: \(.identity_same)", .command,
		(.summary | to_entries[] | "\(.key): median ratio \(.value.median_ratio // 0 | . * 10000 | round / 10000), wins \(.value.wins)/\(.value.pairs), parent IQR \(.value.parent_iqr | . * 10000 | round / 10000)")' "$f"
done
