#!/usr/bin/env bash
# The benchmark's single entry point (BENCHMARK.json "command"). It builds
# benchmarks/perf from source inside the checkout — Go's build cache and
# temporary files included, so nothing is written outside it — and runs it
# with the arguments given. Run from the root of a checkout:
#
#   bash benchmarks/run.sh --workload paper-lossy --seed 7 --seconds 16 --trace 0
#   bash benchmarks/run.sh -runs 10 -out a.json     # every workload, ten seeds
#   bash benchmarks/run.sh -compare a.json b.json
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ] || [ ! -d internal ]; then
	echo "benchmarks/run.sh: run from the root of a checkout of the repository (go.mod, BENCHMARK.json, internal/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/perf" ./benchmarks/perf
exec "$build/perf" -tmpdir "$build/tmp" "$@"
