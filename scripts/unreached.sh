#!/usr/bin/env bash
# Lists two classes of library functions, each under its own heading: the
# functions that only tests reach (linked into some test binary of the
# module, declared in a non-test file outside cmd/ and examples/, and linked
# into no production binary), and the functions no binary links at all
# (declared in such a file and absent from every production and test binary
# built here). Report-only; it exits non-zero only when a build fails.
#
# The production binaries are every cmd/* and examples/* main, the perfbench
# binary, and a generated probe main that references every exported
# function, method and public-interface method of package privreg (as
# `go doc -all` lists them), so everything the public API can reach counts as
# reached. Every binary is built with -gcflags=all=-l: without inlining, a
# small callee stays a symbol of its own instead of vanishing into its caller.
#
# Symbols are compared after generic instantiation brackets and closure
# suffixes (.funcN, .gowrapN, .deferwrapN) are stripped; wrappers the
# compiler generates (<autogenerated>) are skipped. Declared functions are
# read from the `func` lines of the source files (files marked
# //go:build ignore are skipped) and named the way the linker names them.
#
# Usage, from anywhere (it checks the checkout it lives in):
#   scripts/unreached.sh
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/prod" "$tmp/test" "$tmp/probe"
flags=(-gcflags=all=-l)

# The probe: one reference per exported function, method and interface
# method of the public package.
go doc -all . | awk '
	/^func [A-Z][A-Za-z0-9_]*\(/ {
		name = $2; sub(/\(.*/, "", name); print "privreg." name; next
	}
	/^func \([a-z][A-Za-z0-9_]* \*?[A-Z][A-Za-z0-9_]*\) [A-Z]/ {
		recv = $3; sub(/\)$/, "", recv); name = $4; sub(/\(.*/, "", name)
		if (recv ~ /^\*/) print "(*privreg." substr(recv, 2) ")." name
		else print "privreg." recv "." name
		next
	}
	/^type [A-Z][A-Za-z0-9_]* interface \{/ { iface = $2; next }
	iface != "" && /^}/ { iface = ""; next }
	iface != "" && /^\t[A-Z][A-Za-z0-9_]*\(/ {
		name = $1; sub(/\(.*/, "", name); print "privreg." iface "." name
	}
' | sort -u > "$tmp/refs"
{
	printf 'package main\n\nimport "privreg"\n\nvar sink []any\n\nfunc main() {\n'
	sed 's/.*/\tsink = append(sink, &)/' "$tmp/refs"
	printf '\tprintln(len(sink))\n}\n'
} > "$tmp/probe/main.go"
printf 'module unreachedprobe\n\ngo 1.22\n\nrequire privreg v0.0.0\n\nreplace privreg => %s\n' "$repo" > "$tmp/probe/go.mod"

go build "${flags[@]}" -o "$tmp/prod/" ./cmd/... ./examples/...
(cd perfbench && go build "${flags[@]}" -o "$tmp/prod/perfbench" .)
(cd "$tmp/probe" && go build "${flags[@]}" -o "$tmp/prod/probe" .)
go test -c "${flags[@]}" -o "$tmp/test/" ./... >&2

# normalize strips instantiation brackets (innermost first, for shapes such
# as [go.shape.[]float64]) and closure suffixes from a symbol name.
normalize() {
	sed -E ':a; s/\[[^][]*\]//g; ta; s/(\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|\.[0-9]+)+$//'
}

symbols() {
	for bin in "$@"; do
		go tool nm "$bin" | awk '($2 == "T" || $2 == "t") && $3 ~ /^privreg[.\/]/ { print $3 }'
	done | normalize | sort -u
}
symbols "$tmp"/prod/* > "$tmp/reached"
symbols "$tmp"/prod/* "$tmp"/test/* > "$tmp/linked"

# addr2line prints a function name line and a file:line line per address.
for bin in "$tmp"/test/*; do
	go tool nm "$bin" | awk '($2 == "T" || $2 == "t") && $3 ~ /^privreg[.\/]/ { print "0x" $1 }' |
		go tool addr2line "$bin" | paste - -
done | awk -F'\t' -v repo="$repo/" '
	index($2, repo) != 1 { next }
	{ file = substr($2, length(repo) + 1) }
	file ~ /_test\.go:/ || file ~ /^(cmd|examples|perfbench)\// { next }
	{ print $1 "\t" file }
' > "$tmp/tested.raw"
cut -f1 "$tmp/tested.raw" | normalize | paste - <(cut -f2 "$tmp/tested.raw") |
	sort -t$'\t' -k1,1 -u > "$tmp/tested"

awk -F'\t' 'NR == FNR { reached[$1] = 1; next } !($1 in reached) { print $2 "\t" $1 }' \
	"$tmp/reached" "$tmp/tested" | sort -V > "$tmp/unreached"

echo "Functions linked only by tests: $(wc -l < "$tmp/unreached")"
cat "$tmp/unreached"

# Every top-level function and method declared in a library file, as
# "<linker symbol>\t<file>:<line>".
find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git -o -path ./cmd -o -path ./examples \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print | sort | xargs awk '
	FNR == 1 {
		file = FILENAME; sub(/^\.\//, "", file)
		pkg = "privreg"
		if (file ~ /\//) { dir = file; sub(/\/[^\/]*$/, "", dir); pkg = pkg "/" dir }
		skip = 0
	}
	/^\/\/go:build ignore/ { skip = 1 }
	skip { next }
	/^func [A-Za-z_][A-Za-z0-9_]*[[(]/ {
		name = $2; sub(/[[(].*/, "", name)
		if (name != "_") print pkg "." name "\t" file ":" FNR
		next
	}
	/^func \(/ {
		recv = $0; sub(/^func \(/, "", recv); sub(/\).*/, "", recv); gsub(/\[[^]]*\]/, "", recv)
		n = split(recv, parts, " "); typ = parts[n]
		name = $0; sub(/^func \([^)]*\) /, "", name); sub(/[[(].*/, "", name)
		if (typ ~ /^\*/) print pkg ".(*" substr(typ, 2) ")." name "\t" file ":" FNR
		else print pkg "." typ "." name "\t" file ":" FNR
	}
' > "$tmp/declared"

awk -F'\t' 'NR == FNR { linked[$1] = 1; next } !($1 in linked) { print $2 "\t" $1 }' \
	"$tmp/linked" "$tmp/declared" | sort -V > "$tmp/unlinked"

echo
echo "Functions no binary links: $(wc -l < "$tmp/unlinked")"
cat "$tmp/unlinked"
