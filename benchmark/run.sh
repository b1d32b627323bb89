#!/usr/bin/env bash
# The one command: builds the driver from source inside the checkout and
# runs it. Arguments go to the driver unchanged:
#
#   benchmark/run.sh --workload sci_hy_dcz --seed 1 --seconds 20 --trace 0
#   benchmark/run.sh --workload all --out benchmark/results/seed.json
#   benchmark/run.sh --workload cur_vf_raw --trace 1     # per-layer metrics + .bench_build/trace.json
#   benchmark/run.sh --workload all --aa                 # A/A gate against BENCHMARK.json's bounds
#   benchmark/run.sh check                               # go vet + the generator and smoke tests
#
# The driver is a module of its own, so the repository's `go build ./...
# && go test ./...` do not reach it: a change to a package it imports
# runs `benchmark/run.sh check` as well.
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go's caches and temp files included).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
cd "$root/benchmark"
if [ "${1:-}" = check ]; then
	go vet .
	exec go test -count=1 .
fi
go build -o "$build/decibel-benchmark" . >&2
cd "$root"
exec "$build/decibel-benchmark" --data "$build/data" "$@"
