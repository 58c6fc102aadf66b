#!/usr/bin/env bash
# BENCHMARK.json's command. Run from the root of a checkout: builds the
# benchmark from source, keeping the Go build cache and the binary inside
# the checkout (.bench_build/), and runs it with the given arguments.
# Anyone else can simply `go run ./benchmark`.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
