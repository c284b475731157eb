#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the repository
# root, with the benchmark's own flags:
#
#   bash perfbench/run.sh --workload ising-torus64-chromatic --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the repository root: the Go build cache, the binary, and the result and
# span files. Nothing is fetched: the benchmark module depends only on the
# repository module next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=false

# The commit the result belongs to, when the root is a git work tree of its
# own (a plain checkout records "unknown"; the result also carries a hash
# of the sources).
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
fi

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" --commit "$commit" "$@"
