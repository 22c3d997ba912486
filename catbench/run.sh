#!/usr/bin/env bash
# Builds the catalog benchmark from the sources of the checkout it runs in,
# then runs it. Run from the repository root:
#
#   bash catbench/run.sh --workload discover --seed 1 --seconds 10 --trace 0
#   bash catbench/run.sh steady --workload mixed --runs 10 --seconds 10
#
# Build caches, the binary, write-ahead logs and span files all live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/catbench" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
(
	cd "$root/catbench"
	env GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$build/catbench/catbench" .
)
exec "$build/catbench/catbench" --dir "$build/catbench" "$@"
