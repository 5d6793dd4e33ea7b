#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload loaded-n1024 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build writes stays under
# .bench_build/ in that directory: the Go build cache, temporary files and
# the binary. The build runs offline against the local toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
