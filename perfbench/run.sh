#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig4-pipeline --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ in that root.
set -euo pipefail

build=.bench_build
mkdir -p "$build"
export GOCACHE="$PWD/$build/gocache" GOPATH="$PWD/$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C perfbench -o "../$build/perfbench" . >&2
exec "$build/perfbench" "$@"
