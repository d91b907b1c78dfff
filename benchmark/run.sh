#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build the benchmark once per checkout
# into .bench_build (the Go build cache too, so nothing is written outside
# the checkout) and run it with the driver's arguments.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
