#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_miss --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, CPU
# profiles) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
