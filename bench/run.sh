#!/bin/bash
# What BENCHMARK.json's command runs: build psbench from this checkout
# and hand it the arguments. Everything the go tool writes stays under
# bench/out, so a run touches nothing outside the checkout.
set -eu
cd "$(dirname "$0")"
out=$PWD/out
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -buildvcs=false -o "$out/bin/psbench" ./cmd/psbench
exec "$out/bin/psbench" "$@"
