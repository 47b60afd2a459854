#!/usr/bin/env bash
# Builds the end-to-end benchmark from the surrounding checkout and runs it.
# Usage, from the root of the checkout:
#   bash perfbench/run.sh --workload proof-corpus --seed 1 --seconds 20 --trace 0
# Build products, the Go build cache and trace files stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a microfab checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
