#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload dense-train --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the Go
# configuration directory (toolchain telemetry) and the artifacts written
# while measuring stay under $CARGO_TARGET_DIR (default .bench_build), so
# nothing outside the checkout is written and no module is downloaded.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out" "$@"
