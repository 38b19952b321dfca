#!/usr/bin/env bash
# Builds the whole-world benchmark from source and runs it from the root of
# a checkout:
#
#   bash wwbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary and the profiles.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f wwbench/go.mod ]]; then
  echo "wwbench: run from the root of a repository checkout" >&2
  exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd wwbench && go build -o "$build/wwbench-bin" .)
exec "$build/wwbench-bin" --out "$build/wwbench" "$@"
