#!/usr/bin/env bash
# Builds the suite from source inside the checkout and runs it with the
# arguments given; see README.md. Everything the build writes — Go's
# build cache included — goes under .bench_build at the checkout's root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: this is not a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
# No VCS stamping: the acceptance protocol's checkouts are not work trees,
# and a half-present .git must not fail the build. The revision, where
# there is one, travels in the environment instead.
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local go build -o "$build/bench" ./bench
BENCH_REVISION="$(git rev-parse HEAD 2>/dev/null || true)" exec "$build/bench" "$@"
