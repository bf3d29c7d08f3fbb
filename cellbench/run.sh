#!/bin/sh
# Builds cellbench from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#	sh cellbench/run.sh --workload handoff --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build; the build
# uses the local toolchain only and never fetches modules.
set -e
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cellbench" && go build -o "$root/.bench_build/cellbench" .)
exec "$root/.bench_build/cellbench" "$@"
