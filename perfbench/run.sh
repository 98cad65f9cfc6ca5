#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench/tmp" "$out/perfbench/config"

export GOCACHE=$out/perfbench/gocache
export GOMODCACHE=$out/perfbench/gomodcache
export GOTMPDIR=$out/perfbench/tmp
export XDG_CONFIG_HOME=$out/perfbench/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
