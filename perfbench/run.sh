#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload overlay-flood --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build cache,
# the binary and, with --trace 1, the recorded spans.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export CARGO_TARGET_DIR=$build

# Keep the toolchain's caches and settings inside the build directory and
# never let it fetch anything: the benchmark has no dependencies outside
# this repository.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
