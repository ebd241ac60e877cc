#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash qtbench/run.sh --workload scba-narrow --seed 1 --seconds 45 --trace 0
#   bash qtbench/run.sh compare <parent-results-dir> <change-results-dir>
#
# The benchmark is a Go module of its own that requires the repository's
# module through a relative replace, so outside a full checkout the build
# fails and nothing is printed. Every cache, config and temporary file the
# toolchain or the benchmark writes stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/qtbench" && go build -o "$out/qtbench" .) >&2
exec "$out/qtbench" "$@"
