#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload xfer_clean --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d benchmark ]]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/rainbar-benchmark" ./benchmark
exec "$build/rainbar-benchmark" "$@"
