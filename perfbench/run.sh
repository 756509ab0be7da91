#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#   bash perfbench/run.sh --workload star_join --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/config"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" -root "$root" -scratch "$out" "$@"
