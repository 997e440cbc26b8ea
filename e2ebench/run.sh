#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from this checkout's sources
# and runs it. Usage, from the repository root:
#
#   bash e2ebench/run.sh --workload warm-uc --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, module cache, binary) and every
# trace file stays under .bench_build/ in the checkout. A failed build
# exits non-zero before the benchmark prints anything on stdout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOENV=off
export GOTMPDIR="${out}/tmp"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export CGO_ENABLED=0

(cd "${root}/e2ebench" && go build -o "${out}/e2ebench" .) >&2
exec "${out}/e2ebench" "$@"
