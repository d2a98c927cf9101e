#!/usr/bin/env bash
# Builds the repair benchmark and metarepaird from this checkout's source,
# then runs the benchmark with the given arguments. Run from the root of
# the checkout:
#
#   bash repairbench/run.sh --workload paper-19sw --seed 1 --seconds 35 --trace 0
#   bash repairbench/run.sh steady -runs 10 -workloads daemon-store
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and configuration are redirected there too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/repairbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/repairbench" &&
  go build -o "$out/repairbench" . &&
  go build -o "$out/metarepaird" repro/cmd/metarepaird) >&2

exec "$out/repairbench" -out "$out" -daemon "$out/metarepaird" "$@"
