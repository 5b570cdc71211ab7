#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload lit64_s1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (the Go build cache included).
set -euo pipefail
out="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTELEMETRY=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
