#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build
# output inside the checkout (.bench_build/, git-ignored). BENCHMARK.json
# names this script as the command; all arguments pass through.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o ../.bench_build/stagedbench . >&2
exec .bench_build/stagedbench "$@"
