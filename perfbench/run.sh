#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a munin checkout. Every build product, the
# Go build cache and the span files stay under .bench_build/ in that
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]] || ! grep -q '^module munin$' go.mod; then
	echo "perfbench: run from the root of a munin checkout (go.mod with 'module munin' not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
