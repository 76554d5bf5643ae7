#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write — Go's build cache and temporary files, the binary, the stores,
# results.json and the traces — goes under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
