#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload packet_16k --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, temporary files) stay under
# .bench_build/ in the current directory; nothing is fetched from the
# network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
