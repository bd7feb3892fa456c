#!/usr/bin/env bash
# Builds the divotd and divotherd binaries and this benchmark from the
# checkout it is run in, then runs one benchmark pass. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload attest-measure --seed 7 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/divotd" || ! -d "$root/cmd/divotherd" ]]; then
	echo "e2ebench: run from the repository root (need go.mod, cmd/divotd, cmd/divotherd)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/divotd" ./cmd/divotd
go build -o "$out/bin/divotherd" ./cmd/divotherd
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out" "$@"
