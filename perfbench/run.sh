#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload replay-benign --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the binary, the Go build cache and a traced run's spans.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
