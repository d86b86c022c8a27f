#!/usr/bin/env bash
# Builds fwserve, fwworker and the e2ebench program from this checkout,
# then runs e2ebench with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload paper-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# under .bench_build/ in the checkout (Go's build cache included).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/e2ebench" build -o "$build/bin/" . factorwindows/cmd/fwserve factorwindows/cmd/fwworker
exec "$build/bin/e2ebench" --bin "$build/bin" --work "$build/run" "$@"
