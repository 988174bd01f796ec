#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload life-snake --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the current directory, and the build never reaches the
# network. The build fails, and nothing is run, when the simulator sources
# the benchmark module points at (../) are missing.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C bench build -o "$build/cgra-perfbench" .
exec "$build/cgra-perfbench" "$@"
