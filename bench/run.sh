#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"): build the
# benchmark from source inside the checkout, then run it with the driver's
# arguments. People can equally `go run ./bench` from the repository root.
#
# Everything the go tool writes — build cache, work directory, its own
# counters — is pointed into .bench_build so that nothing outside the
# checkout is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: no go.mod/internal here: the program under test is missing" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With a fresh config directory the go command would otherwise detach a
# telemetry child that outlives the build; mode "off" makes it start none.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local \
	go build -o "$build/wgtt-bench" ./bench
exec "$build/wgtt-bench" "$@"
