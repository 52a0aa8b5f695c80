#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload hunt|cti|ingest --seed N --seconds S --trace 0|1
#
# The build cache, the binary, data dirs and span files all stay under
# .bench_build in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -dir "$out/perfbench" "$@"
