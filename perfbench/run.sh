#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload chaos --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and the traced run's span files go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" .

exec "$out/perfbench" --spans-dir "$out" "$@"
