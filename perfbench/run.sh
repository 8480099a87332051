#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload des-longhaul --seed 1 --seconds 25 --trace 0
#
# Every build artifact and Go cache stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
