#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it; this
# is the command of BENCHMARK.json. Everything the build leaves behind
# (compiler cache, temporary files, the binary) stays under
# benchmark/out/build, which benchmark/.gitignore covers, and the
# toolchain is told not to fetch anything.
set -euo pipefail
build=$(pwd)/benchmark/out/build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
