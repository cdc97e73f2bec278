#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# file the toolchain or the benchmark writes lands under .bench_build/.
# Usage: bash bench/run.sh --workload search-cold --seed 1 --seconds 16 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "bench: $root is not a forestview checkout (go.mod or internal/server missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/xdg-config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/forestview-bench" .)
cd "$root"
exec "$build/forestview-bench" "$@"
