#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache and the binary live in
# .bench_build under the current directory, so the run reads and writes
# nothing outside the checkout; the first run also compiles the standard
# library there.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
