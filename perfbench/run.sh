#!/usr/bin/env bash
# Builds the perfbench binary and the cmd/serve binary from the source tree
# this script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload refactor --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ at the repository
# root. The builds finish before perfbench starts, so no workload's clock
# ever includes compilation.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/bin"

export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=readonly CGO_ENABLED=0
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/serve" pmgard/cmd/serve
cd "$root"
exec "$build/bin/perfbench" -serve-bin "$build/bin/serve" -work "$build/work" "$@"
