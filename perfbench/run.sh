#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the current checkout
# and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload sim-loadcurve --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go caches and the
# run's scratch files all stay under .bench_build (or $CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# Keep every file the toolchain touches inside the checkout, and never ask
# the network for a module or a toolchain.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)

if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
# Not exec: the benchmark's own peak-memory figure reads its children's
# usage, which must not include the build's.
"$out/perfbench" -workdir "$out/work" -spandir "$out/trace" "$@"
