#!/usr/bin/env bash
# Builds pawsbench from the source tree it sits in and runs it from the root
# of that tree, passing every argument through:
#
#	bash cmd/pawsbench/run.sh -workload season -seed 1 -seconds 12
#
# The build cache, temporary files and the binary all live under
# .bench_build/ at the tree root, so a run writes nothing outside the tree.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/pawsbench build -o "$out/pawsbench" .
exec "$out/pawsbench" "$@"
