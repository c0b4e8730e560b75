#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and run artifacts (spans, per-layer tables, stall dumps) all go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-runs" "$@"
