#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload dispatch-storm --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced run's files stay under
# .bench_build/ in the current directory. A failed build exits non-zero
# before anything is measured.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)

# The commit is recorded only when the checkout is a git work tree.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$build/bin/perfbench" "$@"
