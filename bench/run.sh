#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash bench/run.sh --workload pull-daily --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (binary, Go build cache, temp
# files, run directories) stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its config and telemetry counters under the user
# config directory; point that inside the checkout as well.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd bench && go build -o "$out/leakbench" .)
exec "$out/leakbench" "$@"
