#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload zipf-single --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build/ at the
# root of the checkout: the Go build cache and temporary files, the
# binary and the shards' data directories. No module is fetched; the
# only dependency is the anna module in the parent directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
