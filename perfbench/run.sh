#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. Build cache, temporary files, stores and traces stay under
# .bench_build in the root. Arguments pass through to the benchmark:
#   bash perfbench/run.sh --workload model-wide --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$work/perfbench.bin" .)
cd "$root"
exec "$work/perfbench.bin" "$@"
