#!/usr/bin/env bash
# Builds the benchmark and cmd/proofd from the checkout it is run in,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-hot --seed 7 --seconds 20 --trace 0
#
# Every build output stays under .bench_build/: the Go build cache,
# GOPATH, and the go command's config and telemetry directory, so the
# run writes only inside the checkout. The module needs nothing from
# the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
go build -o "$out/proofd" ./cmd/proofd
exec "$out/perfbench" -proofd "$out/proofd" -out "$out" "$@"
