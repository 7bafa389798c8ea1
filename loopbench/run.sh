#!/usr/bin/env bash
# Builds the loopback benchmark from source and runs it, passing every
# argument through:
#
#   bash loopbench/run.sh --workload plan-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and any
# file the go command writes stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$root/loopbench" && go build -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
