#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite-sb1 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every file the Go toolchain writes
# (build cache, module cache, telemetry) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Not exec: the benchmark reads the resource use of its reaped children,
# which after an exec would still include the build above.
"$out/perfbench" "$@"
