#!/usr/bin/env bash
# Builds the PARED benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload transient2d --seed 0 --seconds 10 --trace 0
#
# Run from the repository root. Build cache, binary and traces stay under
# .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
