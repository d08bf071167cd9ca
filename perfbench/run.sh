#!/usr/bin/env bash
# Builds the benchmark runner and cmd/serve from the checkout it is run
# in, then runs the runner with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload zipf-read-cached --seed 1 --seconds 36 --trace 0
#
# Every build artifact, Go cache and generated input stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/serve" ./cmd/serve
exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/serve" "$@"
