#!/usr/bin/env bash
# The benchmark's one command: build the harness from source, then run it.
# Everything the build and the run leave behind stays under .bench_build/ in
# the checkout — the Go build cache included, so nothing is read from or
# written to the home directory.
#
#   bash bench/run.sh --workload serve_executed --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh                 # all four workloads
#   bash bench/run.sh -selfcheck      # twice, compared against the bounds
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" || ! -f "$root/go.mod" ]]; then
  echo "bench/run.sh: run from the root of a checkout (BENCHMARK.json and go.mod must be here)" >&2
  exit 2
fi
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$work/bin/bench" .
exec "$work/bin/bench" "$@"
