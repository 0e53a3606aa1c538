#!/usr/bin/env bash
# Builds hrtd and the hrtperf benchmark from this checkout, then runs one
# benchmark invocation with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload admit-query --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and daemon data all stay under .bench_build
# in the checkout. The benchmark's last line of output is its JSON result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/hrtd" ./cmd/hrtd
(cd bench && go build -o "$out/hrtperf" ./hrtperf)
exec "$out/hrtperf" -hrtd "$out/hrtd" -work "$out/work" "$@"
