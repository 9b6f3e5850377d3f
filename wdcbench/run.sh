#!/usr/bin/env bash
# Builds the wdcbench binary from the enclosing checkout and runs it with
# the given arguments, e.g.
#
#   bash wdcbench/run.sh --workload read-30k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, Go tool config) stays under .bench_build/ in that directory, and
# the build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod

go -C "$root/wdcbench" build -o "$out/wdcbench" .
exec "$out/wdcbench" --trace-dir "$out/traces" "$@"
