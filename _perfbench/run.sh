#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash _perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# The build's cache, temporaries and binary all stay under .bench_build/
# at the checkout root. Without the repository's sources next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
