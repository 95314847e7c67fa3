#!/usr/bin/env bash
# selbench entry point: builds the real selestd daemon and the benchmark
# driver from the checkout this script sits in, then runs the driver.
# Everything it writes (Go build cache, binaries, fixtures, temp files,
# run records) lands under .bench_build/selbench in that checkout.
#
#   bash bench/run.sh --workload point_serial --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # all four workloads, seed 1
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/selestd" ]; then
	echo "selbench: $root is not a selnet checkout (no go.mod or cmd/selestd); nothing to benchmark" >&2
	exit 2
fi

work=$root/.bench_build/selbench
mkdir -p "$work/tmp"
export GOCACHE=$work/gocache GOPATH=$work/gopath GOTMPDIR=$work/tmp TMPDIR=$work/tmp
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root" && go build -o "$work/selestd" ./cmd/selestd)
(cd "$root/bench" && go build -o "$work/selbench" .)
cd "$root"
exec "$work/selbench" -root "$root" -work "$work" "$@"
