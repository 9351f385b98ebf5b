#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run from the checkout root:
#
#   bash perfbench/run.sh --workload adhoc-plan --seed 1 --seconds 10 --trace 0
#
# All build state (compiler cache, module cache, temporary files and the
# binary) stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
