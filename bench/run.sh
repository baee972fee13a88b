#!/usr/bin/env bash
# Builds killbench from source into <checkout>/.bench_build and runs it.
# Everything the Go toolchain writes (build cache, module path, telemetry)
# is pointed inside the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	go -C "$here" build -o "$build/killbench" ./killbench
exec "$build/killbench" -root "$root" "$@"
