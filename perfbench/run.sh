#!/usr/bin/env bash
# Builds the cfm benchmark from the source tree it is run in and runs one
# workload. Run from the root of a cfm checkout:
#
#   bash perfbench/run.sh --workload partial_fig314 --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temporary
# files) goes under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cfm.go || ! -d perfbench ]]; then
	echo "perfbench: run from the root of a cfm checkout (go.mod, cfm.go and perfbench/ required)" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

bin="$out/cfmbench"
(cd perfbench && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" --root "$root" "$@"
