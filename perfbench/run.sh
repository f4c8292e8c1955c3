#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the
# repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
#
# The build cache, the Go tool's config and telemetry, temporary files, the
# binary, spans and digests all stay under .bench_build in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
