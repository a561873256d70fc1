#!/usr/bin/env bash
# Builds the ladder benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash _ladderbench/run.sh --workload hot-serve --seed 1 --seconds 10 --trace 0
#
# Every build and cache file stays under .bench_build/ in the current
# directory; traced runs write their spans under .bench_out/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/_ladderbench/go.mod" ]; then
	echo "ladderbench: run from the repository root; the benchmark builds the repository's packages" >&2
	exit 2
fi
build="$root/.bench_build/ladderbench"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/_ladderbench" build -o "$build/ladderbench" .
exec "$build/ladderbench" "$@"
