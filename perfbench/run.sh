#!/usr/bin/env bash
# Builds the benchmark and the tracecheck tool from the checkout's source,
# then runs one workload. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binaries, the diskcache tier of the
# daemon-warm workload and the Chrome traces of traced runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

cd perfbench
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/tracecheck" stringloops/cmd/tracecheck
cd ..
exec "$out/bin/perfbench" --dir "$out/run" --tracecheck "$out/bin/tracecheck" "$@"
