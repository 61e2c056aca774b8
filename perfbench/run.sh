#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 40 --trace 0
#
# The Go build cache lives in .bench_build/ too, so nothing outside the
# checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
if [ -z "${BENCH_COMMIT:-}" ] && command -v git >/dev/null 2>&1; then
  BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
  export BENCH_COMMIT
fi
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
