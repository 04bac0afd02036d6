#!/usr/bin/env bash
# Builds the COMET engine benchmark from source and runs it.
#
#   bash cometbench/run.sh --workload corpus-c --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, binary, stores, traces, temp files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

if ! (cd "$root/cometbench" && go build -o "$out/cometbench" .) >&2; then
	echo "cometbench: build failed (the benchmark needs the engine sources at the repository root)" >&2
	exit 2
fi
exec "$out/cometbench" "$@"
