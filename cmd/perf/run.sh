#!/usr/bin/env bash
# Builds the benchmark command from source and runs it from the
# repository root with the given flags, for example:
#
#   bash cmd/perf/run.sh -workload t1_sweep -seed 1 -seconds 22 -trace 0
#
# Go keeps its build cache, temporary files and telemetry counters under
# the user's home directory by default; here they, the binary and the
# traces all go to .bench_build at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go -C "$root/cmd/perf" build -o "$build/perf" .
cd "$root"
exec "$build/perf" "$@"
