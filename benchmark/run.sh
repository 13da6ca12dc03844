#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload sssp-road --seed 1 --seconds 20 --trace 0
#
# Every build product (Go build cache, binary, span files) and the go
# command's own state stay under .bench_build/ in the current directory, and
# nothing is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C benchmark build -o "$out/bin/relaxsched-bench" .
exec "$out/bin/relaxsched-bench" "$@"
