#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-pythia-1c --seed 1 --seconds 30 --trace 0
#
# Everything it writes (the Go build cache, the binary, scratch data and
# spans) goes under the build directory, $CARGO_TARGET_DIR when set and
# .bench_build otherwise, relative to the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gotmp"
# The go command keeps its cache, temp files, module cache and telemetry
# counters under the build directory; it needs no network.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
