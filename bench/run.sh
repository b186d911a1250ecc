#!/usr/bin/env bash
# Build xcserve, xcarchive and xcload from this checkout and run the
# benchmark. Everything it writes (build cache, binaries, temp dirs)
# lands under .bench_build/ at the root of the checkout; trace files
# land under bench/out/.
#
#   bench/run.sh                         all four workloads, end-to-end metrics
#   bench/run.sh -workload hot-eval      one workload
#   bench/run.sh -seed 7 -trace          per-layer metrics from the traced run
#   bench/run.sh -quick                  smoke mode (2 windows of 1 s)
#   bench/run.sh -selfcheck              run the suite twice, compare with the bounds
#
# The driver's spelling works too:
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export TMPDIR="$build/tmp"

go build -o "$build/bin/" ./cmd/xcserve ./cmd/xcarchive ./bench/xcload

exec "$build/bin/xcload" -bin "$build/bin" -out "$root/bench/out" "$@"
