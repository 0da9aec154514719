#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
# Run from the root of the checkout. Build outputs, the Go build cache
# and the benchmark's scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/home/go"
export XDG_CONFIG_HOME="$build/home" HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
export PERFBENCH_DIR="$root/perfbench" PERFBENCH_BUILD_DIR="$build"
exec "$build/perfbench" "$@"
