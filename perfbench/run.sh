#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-bulk --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, temporary
# files, the binary, span dumps) goes to .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
