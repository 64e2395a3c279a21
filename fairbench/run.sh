#!/usr/bin/env bash
# Builds the fairtcimd daemon and the benchmark client from the checkout
# this script sits in, then runs the client with the given arguments, e.g.
#
#   bash fairbench/run.sh --workload warm-solve --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under <checkout>/.bench_build: the Go
# build cache, temporary files, the binaries, and each run's graph file and
# daemon state directory (removed when the run ends).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/fairbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# With telemetry on ("local" is the default), the go command forks a detached
# upload child that can outlive this script; turning it off stops the fork.
echo off > "$out/config/go/telemetry/mode"
(cd "$root" && go build -o "$out/fairtcimd" ./cmd/fairtcimd)
(cd "$root/fairbench" && go build -o "$out/fairbench" .)
cd "$root"
exec "$out/fairbench" -daemon "$out/fairtcimd" -workdir "$out" "$@"
