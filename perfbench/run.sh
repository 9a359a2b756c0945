#!/usr/bin/env bash
# End-to-end pxmld benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# Builds the benchmark (and with it the pxml packages it drives) into
# .bench_build/perfbench with a build cache kept inside the checkout, then
# runs it. Build output goes to stderr; the last stdout line is the JSON
# result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
) 1>&2

exec "$out/perfbench" -work "$out/work" "$@"
