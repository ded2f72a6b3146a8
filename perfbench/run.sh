#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload dsm-sweep --seed 1 --seconds 10 --trace 0
#
# The build output, the Go build cache and every file a run writes stay
# under .bench_build/ in the repository root. Without the simulator's
# sources beside perfbench/ the build fails and so does the run.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
