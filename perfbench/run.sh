#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's own sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload survey --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the checkout. Outside a checkout that holds the
# program's sources the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
  commit=$(git -C "$root" rev-parse HEAD)
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
