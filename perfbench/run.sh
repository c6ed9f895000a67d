#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload ward_search --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, spans) goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/emap-perfbench" .)
cd "$root"
exec "$out/emap-perfbench" -out "$out" "$@"
