#!/bin/bash
# The driver's entry point, named in BENCHMARK.json and run from the root of a
# checkout: build bench from source into the checkout's own .bench_build
# (binary and Go build cache both, so nothing is written outside the checkout)
# and run it with the driver's arguments.
#
#	bash bench/run.sh --workload svc_churn --seed 7 --seconds 20 --trace 0
set -eu
out=.bench_build
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$PWD/$out/gocache}"
export GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
