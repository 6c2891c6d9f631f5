#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it (never `go run`, so a
# signal that stops this script reaches the benchmark itself).
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload cluster-multi --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, spill stores (removed
# when the run ends), span files and per-run reports.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

bin="$out/perfbench"
(cd "$here" && exec go build -o "$bin.$$" .) &
build=$!
trap 'kill "$build" 2>/dev/null; wait "$build" 2>/dev/null; rm -f "$bin.$$"; exit 130' INT TERM
wait "$build"
trap - INT TERM
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
