#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, for example:
#
#	bash e2ebench/run.sh --workload x3-model --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache go to .bench_build at the root of the
# checkout, so a run writes nothing outside it. See e2ebench/NOTES.md.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
