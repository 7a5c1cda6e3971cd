#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given flags, for example:
#
#   bash bench/run.sh --workload ingest-http --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the Go
# toolchain's own config and telemetry files, temporary files, the binary,
# snapshots, span files and results.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
# The module has no dependencies outside the repository: never download.
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/sizeless-bench" .)
exec "$out/sizeless-bench" -dir "$out/bench" "$@"
