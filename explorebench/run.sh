#!/usr/bin/env bash
# Builds the explorer benchmark from this checkout's sources and runs it:
#
#   bash explorebench/run.sh --workload sg3-full-dfs --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# the runs' scratch files all stay under .bench_build/; the build needs no
# network.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go -C explorebench build -o "$build/explorebench" ./cmd/explorebench
exec "$build/explorebench" "$@"
