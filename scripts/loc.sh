#!/usr/bin/env bash
# Prints the repository's non-test Go line count: every .go file outside
# perfbench/ (its own module), .bench_build/ and .git/, excluding *_test.go.
# Run from anywhere; it counts the checkout the script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."
find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
