#!/usr/bin/env bash
# Builds efserver and the benchmark from this checkout, then runs one
# measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build and run artifact stays under .bench_build/ in the checkout
# (Go caches, binaries, temporary state directories). The last line on
# standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/efserver ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod or cmd/efserver)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

go build -o "$out/bin/efserver" ./cmd/efserver >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --efserver "$out/bin/efserver" --workdir "$out/tmp" "$@"
