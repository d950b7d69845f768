#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (see perfbench/main.go for the flags). Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload hot-shapes --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and telemetry caches, the binary, the snapshot
# file a traced run's probes restore, and a traced run's Chrome trace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
