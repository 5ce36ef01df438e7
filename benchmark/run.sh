#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash benchmark/run.sh --workload single --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory, and the toolchain is never
# fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/benchmark" build -o "$build/serving-bench" .
exec "$build/serving-bench" "$@"
