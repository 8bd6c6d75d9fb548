#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload storm --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's journals all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
