#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-outdoor --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
