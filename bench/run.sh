#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments; BENCHMARK.json names this script as the benchmark's command.
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C "$here" build -buildvcs=false -o "$build/bench" .
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/bench" --dir "$build" --commit "$commit" "$@"
