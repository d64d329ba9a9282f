#!/usr/bin/env bash
# Build d3tbench into .bench_build/ at the root of the checkout and run it.
# The Go build cache and temp dir live there too, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/d3tbench" .
exec "$build/d3tbench" -out "$here/out" -tmp "$build/tmp" "$@"
