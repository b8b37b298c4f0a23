#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload closed-fp32 --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache,
# temporary files, telemetry) stays under .bench_build/ in the current
# directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/axsnn-bench" .)
exec "$build/axsnn-bench" "$@"
