#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash benchmark/run.sh [flags].
# Everything the build writes (cache, module path, temporary files) stays
# inside the checkout, under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/e18" .
exec "$build/e18" "$@"
