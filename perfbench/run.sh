#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-repeat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's temporary files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
