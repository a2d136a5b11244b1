#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it from the
# checkout root with the given arguments, for example
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the span files stay under
# .bench_build/perfbench in the checkout. Nothing is downloaded: the
# benchmark module needs only the standard library and the repository's
# own module next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
