#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the root of the checkout.
# Everything the build and the run write — Go build cache, binary, temp
# campaign dirs, results — stays inside the checkout (.bench_build/ and
# benchmark/out/). See benchmark/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the toolchain's own telemetry counters and env file.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
