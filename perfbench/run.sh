#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root: bash perfbench/run.sh --workload train-sage --seed 1
# --seconds 12 --trace 0. Every file the build or the run writes stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
