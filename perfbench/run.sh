#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.
#
#   bash perfbench/run.sh --workload apps-inproc --seed 1 --seconds 10 --trace 0
#
# from the repository root. Everything the build writes, the Go build cache
# included, stays in .bench_build at the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
