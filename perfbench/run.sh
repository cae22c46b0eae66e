#!/usr/bin/env bash
# Builds the benchmark and the solver it drives from the sources of this
# checkout, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload refactor --seed 1 --seconds 25 --trace 0
#
# Every build artifact (the binary, the Go build cache, the build's
# temporary files, the toolchain's config and telemetry files) stays
# under $CARGO_TARGET_DIR, default .bench_build, so the run writes
# nothing outside the checkout. Build
# output goes to standard error; the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
