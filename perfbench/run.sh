#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-campaign --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache,
# the build's temporary files and the traced run's span files stay under
# .bench_build in that directory.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOTMPDIR=$out/tmp
export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
