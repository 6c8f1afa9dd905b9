#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from (build cache and temporary files included, so nothing is
# written outside the checkout) and runs it with the given arguments.
# Run it from the repository root:  bash benchmark/run.sh [flags]
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/benchmark" && go build -o "$build/stance-benchmark" .)
exec "$build/stance-benchmark" "$@"
