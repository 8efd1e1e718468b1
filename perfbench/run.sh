#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go for the flags). Everything the build and
# the run leave behind stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
