#!/usr/bin/env bash
# Builds the benchmark and merakid from the tree under test, then runs
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload steady --seed 3 --seconds 10 --trace 0
# Run it from the repository root. Build output and the Go build cache
# stay under the checkout's build directory.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters) inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
(cd "$root" && go build -o "$out/bin/merakid" ./cmd/merakid)
exec "$out/bin/perfbench" -merakid "$out/bin/merakid" -workdir "$out/run" "$@"
