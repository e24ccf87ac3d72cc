#!/usr/bin/env bash
# Builds sdcperf from this checkout and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/sdcperf/run.sh --workload paper-report --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the benchmark's caches and span files
# all stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f cmd/sdcperf/go.mod ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters and env file under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
# The benchmark and the program need only the standard library: never
# fetch a module or a toolchain.
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C cmd/sdcperf build -o "$build/sdcperf" .
exec "$build/sdcperf" -workdir "$build/sdcperf-work" "$@"
