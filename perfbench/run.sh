#!/usr/bin/env bash
# Builds the perfbench binary from source into .bench_build/ and runs it
# with the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 12 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout (build cache, temp dirs, data dirs, spans).
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
