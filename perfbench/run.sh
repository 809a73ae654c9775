#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; all build
# state (Go cache, binary, temp files) stays under .bench_build/. Run from
# the repository root; arguments go to perfbench (see main.go).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full checkout (simulator source not found in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
