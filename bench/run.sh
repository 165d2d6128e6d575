#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# arguments are passed to the program unchanged (see README.md).
#
# Everything the build writes stays under .bench_build/ at the root of the
# checkout: the Go build cache, the go command's own configuration and
# counters, and the binary. No network is used.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$root/.bench_build/tcpdemux-bench" .
exec .bench_build/tcpdemux-bench "$@"
