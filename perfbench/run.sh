#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash perfbench/run.sh --workload resample-search --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, GOPATH and all scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
