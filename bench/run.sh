#!/usr/bin/env bash
# Runs the elpcd end-to-end benchmark from the root of an elpc checkout:
#
#   bash bench/run.sh --workload plan-repeat --seed 1 --seconds 10 --trace 0
#
# Every build, log, data directory and trace goes under .bench_build/ in the
# checkout, including the Go build cache, so nothing is written elsewhere.
# Flags pass through to the benchmark program (see bench/main.go).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/elpcd || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of an elpc checkout" >&2
	exit 2
fi
work="$PWD/.bench_build"
mkdir -p "$work/tmp" "$work/home"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	HOME="$work/home" XDG_CONFIG_HOME="$work/home" GOPATH="$work/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
go -C bench build -o "$work/bench" .
exec "$work/bench" -root "$PWD" "$@"
