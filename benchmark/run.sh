#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Everything it writes (binary, Go build cache, server data) goes under
# .bench_build/ at the root of the checkout. Arguments are passed through:
#   bash benchmark/run.sh --workload meta_small --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$build/stacksync-bench" .)
cd "$root"
exec "$build/stacksync-bench" -work "$build" "$@"
