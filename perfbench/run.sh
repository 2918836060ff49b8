#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, from the checkout root:
#
#   bash perfbench/run.sh --workload tc-stream --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config"
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
