#!/bin/sh
# run.sh — the BENCHMARK.json command: run the benchmark with every
# file the Go toolchain writes (build cache, link scratch, the stack's
# binaries) kept under .bench_build/ inside the checkout.
#
# Usage: sh benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
cd "$root/benchmark"
exec go run . "$@"
