#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload attack-extract --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout. Build output goes to stderr; the benchmark's last stdout
# line is its JSON result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
