#!/usr/bin/env bash
# Builds the benchmark and runs it against this checkout. Run from the
# repository root:
#
#   bash bench/run.sh [-workload name] [-seed N] [-trace 0|1] [-o results.json]
#   bash bench/run.sh -compare A.json B.json
#
# The Go build cache, module cache, temp files and the benchmark binary
# all live under .bench_build/, so a run writes nothing outside the
# checkout. The first run compiles from scratch (about half a minute).
set -euo pipefail

root="$(pwd)"
if [ ! -d "$root/cmd/avserve" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (no cmd/avserve or go.mod here)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
