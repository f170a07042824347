#!/usr/bin/env bash
# Builds the benchmark and pstld from the source tree, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, saved results and Chrome traces go
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/pstld" pstlbench/cmd/pstld)
exec "$build/bin/perfbench" --root "$root" --pstld "$build/bin/pstld" --out "$build/results" "$@"
