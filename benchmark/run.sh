#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a module of its
# own that imports the partitioner's packages through a replace directive)
# into benchmark/out/build/ and runs it with the arguments given. Compiler
# caches stay there too, so a run writes nothing outside benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -C "$here" -o "$build/kappabench" .
exec "$build/kappabench" "$@"
