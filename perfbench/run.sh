#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
# Build output, the Go build cache, checkpoints and span files all stay
# under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -out "$build/perfbench-out" "$@"
