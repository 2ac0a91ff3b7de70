#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout it is run in and runs
# it with the given arguments:
#
#   bash servebench/run.sh --workload fit-jobs --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, run records, span files, data dirs) goes under
# .bench_build/ in that directory, and nothing is fetched: the module needs
# only the standard library and the repository beside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
