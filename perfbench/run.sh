#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash perfbench/run.sh --workload big_doc_stream --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary corpus, trace files) stays under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
