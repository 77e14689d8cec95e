#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/bench from source into
# .bench_build/ inside the checkout and runs it with the driver's arguments.
# Everything the Go toolchain writes (build cache, temporary files, module
# cache, telemetry) is kept inside the checkout as well.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# go build is its own staleness check: a no-op when nothing changed.
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
