#!/usr/bin/env bash
# Builds cmd/netserve and the benchmark from the tree this script sits in,
# then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload zipf-hits --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.out head.out
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The module needs nothing outside the repository: never fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/netserve" ./cmd/netserve

if [[ "${1:-}" == compare ]]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" -netserve "$out/netserve" -workdir "$out" "$@"
