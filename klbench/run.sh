#!/usr/bin/env bash
# Builds klbench from source and runs one workload. Run it from the root
# of a klocal checkout:
#
#   bash klbench/run.sh --workload route-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# generated graph files, span dumps) stays under .bench_build/ in the
# checkout. The build log goes to stderr, so the last line of stdout is
# the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C klbench build -o "$out/klbench" . >&2
exec "$out/klbench" -out "$out" "$@"
