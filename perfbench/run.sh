#!/usr/bin/env bash
# Builds sortd and the benchmark from the sources of the checkout this is
# run from, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry on, every go command may fork a detached sidecar that
# outlives it. "go telemetry off" starts none and turns it off for the
# go commands after it, as the mode is kept under XDG_CONFIG_HOME.
go telemetry off
go build -o "$out/bin/sortd" ./cmd/sortd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
commit=$(git rev-parse --short HEAD 2>/dev/null ||
	find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12 | sed 's/^/tree-/')
exec "$out/bin/perfbench" -sortd "$out/bin/sortd" -out "$out" -commit "$commit" "$@"
