#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Everything it writes — the Go build cache, the binary and the store
# files of the live workloads — stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the module sources are missing" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
# The go command keeps usage counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$build/perfbench" .) >&2

commit=
if [[ -e .git ]]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || true)
fi
if [[ -z $commit ]]; then
	# Outside a git checkout, record a digest of the sources instead.
	commit=src-$(find go.mod internal perfbench -type f -name '*.go' -o -name go.mod |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)
fi

exec "$build/perfbench" --workdir "$build/work" --commit "$commit" "$@"
