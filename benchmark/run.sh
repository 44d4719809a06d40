#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the current directory (the checkout root) and runs it
# with the arguments given. Everything the Go toolchain writes -- build cache,
# telemetry, the binary -- stays inside the checkout; nothing is fetched.
set -euo pipefail

root=$PWD
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root (benchmark/go.mod not found in $root)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/home"
export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -C "$root/benchmark" -o "$build/omcast-benchmark" . >&2
exec "$build/omcast-benchmark" "$@"
