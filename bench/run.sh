#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the command
# BENCHMARK.json names:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build writes stays inside the checkout: the Go build
# cache and the binary live in .bench_build/ at the repository root, and
# result documents and trace files go to bench/out/ unless --out says
# otherwise. In a directory that holds only the benchmark's own files the
# build fails (the module under test is missing) and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$here" build -o "$build/bench" .
exec "$build/bench" --out "$here/out" "$@"
