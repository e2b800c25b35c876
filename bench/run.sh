#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes — the binary, the Go build cache, the go
# command's own state — goes under .bench_build/, so a run reads and writes
# only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOFLAGS=
	go build -o "$out/ttmqo-e2e" .
)
cd "$root"
exec "$out/ttmqo-e2e" "$@"
