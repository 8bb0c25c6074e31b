#!/usr/bin/env bash
# Builds xtree-serve and the benchmark driver from the checkout in the
# current directory, then runs the driver with the given arguments:
#
#   bash xbench/run.sh --workload embed-hot --seed 1 --seconds 20 --trace 0
#   bash xbench/run.sh --workload all --seed 1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# GOWORK and GOENV off: no go.work or settings file from outside the
# checkout can change the build.
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOENV=off

go build -o "$out/bin/xtree-serve" ./cmd/xtree-serve
(cd xbench && go build -o "$out/bin/xbench" .)

# Provenance: read the revision only from a repository rooted here, so git
# never searches the directories above the checkout.
commit=unknown
dirty=unknown
if [ -e .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then dirty=true; else dirty=false; fi
fi

exec "$out/bin/xbench" -server "$out/bin/xtree-serve" -out "$out" -commit "$commit" -dirty "$dirty" "$@"
