#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary state and profiles all live
# under .bench_build/ in the current directory, so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -work "$build" "$@"
