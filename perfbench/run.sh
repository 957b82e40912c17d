#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run from
# the repository root; every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload kv-lossy --seed 3 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, WAL files and span dumps all stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --commit "$commit" "$@"
