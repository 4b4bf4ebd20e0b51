#!/usr/bin/env bash
# Builds the serving benchmark and ivmfd from this checkout into
# .bench_build/ (Go build cache and temp files included), then runs one
# workload:
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root; see servebench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd servebench && go build -o "$out/servebench" . && go build -o "$out/ivmfd" repro/cmd/ivmfd)
exec "$out/servebench" -bin "$out/ivmfd" -work "$out/work" "$@"
