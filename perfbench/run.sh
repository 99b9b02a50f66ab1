#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files, span dumps and result
# records all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Freed heap pages go back to the kernel with MADV_FREE, not MADV_DONTNEED:
# with MADV_DONTNEED every refresh faulted its heap back in, some 3000
# page faults whose kernel time moved with the host's load.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" "$@"
