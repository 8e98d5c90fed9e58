#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash topilbench/run.sh --workload infer --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, scratch files and run records all stay under
# .bench_build in the repository root.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f topilbench/go.mod ]]; then
	echo "topilbench: run from the repository root (go.mod, internal/ and topilbench/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C topilbench build -o "$out/topilbench" .
exec "$out/topilbench" "$@"
