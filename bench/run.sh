#!/usr/bin/env bash
# Builds the hub benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash bench/run.sh --workload wire_light --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare a.jsonl b.jsonl
#
# The binary, the Go build and module caches, the go command's config and
# telemetry, result files, traces and the temporary stores of a run all stay
# under $CARGO_TARGET_DIR (default .bench_build). The module has no
# dependencies to fetch, so the module proxy is switched off.
set -euo pipefail
if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
  echo "bench: run from the repository root (go.mod or bench/go.mod missing)" >&2
  exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" --dir "$out" "$@"
