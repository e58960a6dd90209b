#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash hslbbench/run.sh --workload plan --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the traced runs' spans stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# hslbbench/ the build fails and the script exits non-zero.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd hslbbench && go build -o "$out/hslbbench" .)
exec "$out/hslbbench" --trace-dir "$out/trace" "$@"
