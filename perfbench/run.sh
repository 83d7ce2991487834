#!/usr/bin/env bash
# Builds cachemapd and the benchmark from the checkout this script sits in,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root (Go build cache included).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/cachemapd" ./cmd/cachemapd)
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/cachemapd" -workdir "$out/perfbench-runs" "$@"
