#!/usr/bin/env bash
# Builds the benchmark and fwserved from source and runs the benchmark,
# passing every argument through:
#
#   bash bench/run.sh --workload diff-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory: the Go build cache, the
# binaries, and the per-run results. In a directory without the rest of
# the repository the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/bin"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$root/bench"
go build -o "$build/bin/" . diversefw/cmd/fwserved
cd "$root"
exec "$build/bin/bench" -server "$build/bin/fwserved" -out "$build/out" "$@"
