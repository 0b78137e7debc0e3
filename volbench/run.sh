#!/usr/bin/env bash
# Builds volbench, the repo benchmark, from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repo root:
#
#   bash volbench/run.sh --workload small-fast --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans all stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd volbench && go build -o "$out/volbench" .) >&2
exec "$out/volbench" "$@"
