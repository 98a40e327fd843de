#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, temp files) goes
# to .bench_build at the repository root, next to this directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
