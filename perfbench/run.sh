#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; run it from the
# repository root:
#
#   bash perfbench/run.sh --workload sim_grid --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory: the Go build cache and temporary
# files, the binary, and the journals, metric exports and span files of
# the run.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off XDG_CONFIG_HOME=$build/config
export TMPDIR=$build/tmp
mkdir -p "$TMPDIR"
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -tmp "$build/perfbench-run" "$@"
