#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it. Run from the repository root:
#
#   bash bench/run.sh --workload signoff_abbe --seed 3 --seconds 25 --trace 0
#   bash bench/run.sh -compare before.log after.log
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory, and the build
# never reaches for the network or a different toolchain.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go -C bench build -o "$out/postopc-bench" .
exec "$out/postopc-bench" "$@"
